#ifndef SMARTMETER_TABLE_TABLE_READER_H_
#define SMARTMETER_TABLE_TABLE_READER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/block_store.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/column_store.h"
#include "storage/row_store.h"
#include "storage/scan_scope.h"
#include "table/columnar_batch.h"
#include "table/data_source.h"
#include "timeseries/dataset.h"

namespace smartmeter::table {

/// A batch restricted to a ScanScope, plus whatever keeps its memory
/// alive and what the restriction covers. The batch is always a view of
/// resident data; no scoped scan decodes. `owner` is null when the batch
/// borrows the reader's own storage (SMCOLV1, text and row paths) and
/// holds the shared decoded image of an SMCOLV2 file, so the batch stays
/// valid even after the reader is gone. `stats` is the scope's coverage
/// of the block index (zero for formats without one).
struct ScopedBatch {
  ColumnarBatch batch;
  std::shared_ptr<const void> owner;
  storage::ScanStats stats;
};

/// One interface every storage backend implements so the engines and the
/// kernels see a single shape of data: Open() does the format-specific
/// work (parse, scan, or mmap) once, then NewBatch() hands out zero-copy
/// ColumnarBatch views into the reader's storage for as long as the
/// reader lives.
///
/// Readers are not thread-safe during Open(); batches taken after Open()
/// are immutable views and may be scanned from many threads.
class TableReader {
 public:
  virtual ~TableReader() = default;

  TableReader(const TableReader&) = delete;
  TableReader& operator=(const TableReader&) = delete;

  /// Loads / maps the underlying storage. Must be called (and succeed)
  /// before NewBatch(). Calling Open() twice re-reads the source.
  virtual Status Open() = 0;

  /// A zero-copy view over everything Open() loaded. Valid until the
  /// reader is destroyed or re-opened.
  virtual Result<ColumnarBatch> NewBatch() const = 0;

  /// A batch restricted to `scope`. The base implementation slices the
  /// full batch by rows (hour windows are rejected — only an indexed
  /// format can restrict them); block-indexed readers override it to
  /// serve hour windows too and report the scope's block coverage.
  virtual Result<ScopedBatch> NewScopedBatch(
      const storage::ScanScope& scope) const;

  /// Short stable label for reports ("csv", "column-file", ...).
  virtual std::string_view format_name() const = 0;

 protected:
  TableReader() = default;
};

/// Text path: parses any DataSource layout into an in-memory dataset.
/// This is the cold path every cache miss pays once.
class CsvTableReader : public TableReader {
 public:
  explicit CsvTableReader(DataSource source);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "csv"; }

  const MeterDataset& dataset() const { return dataset_; }

 private:
  DataSource source_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Binary column-file path (System C's native store and the columnar
/// cache's file format). Open() sniffs the generation: SMCOLV1 is pure
/// mmap + pointer arithmetic (the OS shares the pages between readers).
/// SMCOLV2 mmaps the compressed file, validates it, and attaches the one
/// decoded image of its content that every reader in the process shares:
/// the first Open() of the content decodes it, and later Open()s, while
/// any reader or batch still holds that image, only check their own
/// mapping's block checksums (counted by `table.image.shared_opens`).
/// The image is keyed by content (size, header and footer checksums), so
/// a rewritten file never picks up a stale image.
///
/// Batches and scoped batches are zero-copy views of the image; a scoped
/// batch slices it and reports the scope's block-index coverage in its
/// stats without decoding.
class ColumnFileReader : public TableReader {
 public:
  explicit ColumnFileReader(std::string path);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  Result<ScopedBatch> NewScopedBatch(
      const storage::ScanScope& scope) const override;
  std::string_view format_name() const override { return "column-file"; }

  /// 1 (SMCOLV1) or 2 (SMCOLV2) once open.
  int format_version() const { return format_version_; }
  /// What this Open() decoded: the whole-file block/byte counts for the
  /// Open() that decoded an SMCOLV2 image, zero when it shared a live
  /// image or the file is SMCOLV1 (nothing to decode).
  const storage::ScanStats& open_stats() const { return open_stats_; }

  const storage::ColumnStore& store() const { return store_; }
  /// The compressed SMCOLV2 mapping, or null when the open file is
  /// SMCOLV1 (whose reads go through store()).
  const storage::CompressedColumnFile* compressed() const {
    return format_version_ == 2 ? &compressed_ : nullptr;
  }

 private:
  struct DecodedImage;

  // The live image of `file`'s content, decoding it (and reporting the
  // work in `decoded`) only when no reader holds one.
  static Result<std::shared_ptr<const DecodedImage>> AttachImage(
      const storage::CompressedColumnFile& file, storage::ScanStats* decoded);

  std::string path_;
  int format_version_ = 0;
  storage::ColumnStore store_;
  storage::CompressedColumnFile compressed_;
  storage::ScanStats open_stats_;
  // The SMCOLV2 file's shared decoded columns; null for SMCOLV1.
  std::shared_ptr<const DecodedImage> image_;
};

/// Heap-file + B+-tree path (MADLib's row table): Open() runs the
/// whole-table GROUP BY scan through the buffer pool.
class RowStoreReader : public TableReader {
 public:
  /// Borrows `store`, which must be load-finished and outlive the reader.
  explicit RowStoreReader(const storage::RowStore* store);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "row-store"; }

 private:
  const storage::RowStore* store_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Serialized array-row path (MADLib's array table): Open() deserializes
/// every household row sequentially.
class ArrayStoreReader : public TableReader {
 public:
  /// Borrows `store`, which must be loaded and outlive the reader.
  explicit ArrayStoreReader(const storage::ArrayStore* store);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "array-store"; }

 private:
  const storage::ArrayStore* store_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Simulated-HDFS path: Open() reads every input split with
/// TextInputFormat semantics and assembles the rows, exactly what a
/// full MapReduce scan of the block store observes.
class BlockStoreReader : public TableReader {
 public:
  /// Borrows `store`, which must outlive the reader. `splittable`
  /// selects block-aligned splits vs. whole-file splits (format 3).
  BlockStoreReader(const cluster::BlockStore* store, bool splittable);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "block-store"; }

 private:
  const cluster::BlockStore* store_;
  bool splittable_;
  MeterDataset dataset_;
  bool open_ = false;
};

/// Borrowed in-memory dataset (warm engine state, tests).
class DatasetReader : public TableReader {
 public:
  /// Borrows `dataset`, which must outlive the reader.
  explicit DatasetReader(const MeterDataset* dataset);

  Status Open() override;
  Result<ColumnarBatch> NewBatch() const override;
  std::string_view format_name() const override { return "dataset"; }

 private:
  const MeterDataset* dataset_;
};

/// Parses `source` into a dataset using the layout-appropriate CSV
/// reader. Shared by CsvTableReader and the columnar cache's miss path.
Result<MeterDataset> ReadDatasetFromSource(const DataSource& source);

/// The generic reader for a text source (a CsvTableReader). Engines with
/// a native store construct their specific reader directly instead.
Result<std::unique_ptr<TableReader>> MakeReader(const DataSource& source);

}  // namespace smartmeter::table

#endif  // SMARTMETER_TABLE_TABLE_READER_H_
