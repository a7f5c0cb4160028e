#ifndef SMARTMETER_STORAGE_COLUMN_STORE_H_
#define SMARTMETER_STORAGE_COLUMN_STORE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/scan_scope.h"
#include "timeseries/dataset.h"

namespace smartmeter::storage {

/// Main-memory column store modelled on "System C" (Section 5.1): time
/// series live in contiguous per-household column segments inside a single
/// binary file that is memory-mapped at load time, so "loading" is nearly
/// free and scans are pointer arithmetic over doubles.
///
/// Binary layout (little-endian, 8-byte aligned):
///   [0..8)    magic "SMCOLV1\0"
///   [8..16)   uint64 num_households
///   [16..24)  uint64 hours per household
///   then      int64 household ids        (num_households entries)
///   then      double consumption column  (num_households * hours, household-major)
///   then      double temperature column  (hours entries)
class ColumnStore {
 public:
  ColumnStore() = default;
  ~ColumnStore();

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;
  ColumnStore(ColumnStore&&) noexcept;
  ColumnStore& operator=(ColumnStore&&) noexcept;

  /// Serializes `dataset` into the binary columnar file at `path`.
  static Status WriteFile(const MeterDataset& dataset,
                          const std::string& path);

  /// Memory-maps the file; data is accessed in place (zero copy). On any
  /// failure (open, stat, short file, mmap, corrupt header) the store is
  /// left closed with no fd or mapping leaked.
  Status OpenMapped(const std::string& path);

  /// Owned-memory fallback: materializes the same SMCOLV1 image into a
  /// heap buffer instead of a file mapping. Used when there is no file to
  /// map (warm in-process data, tests); every accessor behaves exactly as
  /// in the mapped case. On failure the buffer is released.
  Status LoadFromDataset(const MeterDataset& dataset);

  /// Releases the mapping / owned memory.
  void Close();

  bool is_open() const { return num_households_ > 0 || hours_ > 0; }
  bool is_mapped() const { return mapped_base_ != nullptr; }

  size_t num_households() const { return num_households_; }
  size_t hours() const { return hours_; }

  int64_t household_id(size_t i) const { return household_ids_[i]; }
  std::span<const int64_t> household_ids() const {
    return {household_ids_, num_households_};
  }

  /// Consumption column segment of household i (hours() doubles).
  std::span<const double> consumption(size_t i) const {
    return {consumption_ + i * hours_, hours_};
  }

  /// The full consumption column, household-major.
  std::span<const double> consumption_column() const {
    return {consumption_, num_households_ * hours_};
  }

  std::span<const double> temperature() const {
    return {temperature_, hours_};
  }

 private:
  Status PointIntoBuffer(const uint8_t* base, size_t size,
                         const std::string& origin);

  // At most one backing store is active:
  //  * mapped_base_/mapped_size_ — a read-only MAP_PRIVATE mapping owned
  //    by this object. Close() munmaps it, and every OpenMapped() error
  //    path unmaps/closes before returning.
  //  * owned_ — the owned-memory fallback (LoadFromDataset): the SMCOLV1
  //    image lives in this heap buffer. operator new's max_align_t
  //    guarantee plus the 8-byte-multiple section offsets keep the
  //    int64/double columns naturally aligned.
  // The column pointers below point into whichever one is live.
  void* mapped_base_ = nullptr;
  size_t mapped_size_ = 0;
  std::vector<uint8_t> owned_;

  size_t num_households_ = 0;
  size_t hours_ = 0;
  const int64_t* household_ids_ = nullptr;
  const double* consumption_ = nullptr;
  const double* temperature_ = nullptr;
};

// ---------------------------------------------------------------------------
// SMCOLV2: the compressed generation of the column file. Same logical
// content as SMCOLV1 (ids + household-major consumption + shared
// temperature), but every column is cut into fixed-size value blocks
// encoded with the block codec (delta + frame-of-reference +
// bit-packing, verified decimal fixed-point for doubles), and a footer
// carries a per-block (household range × hour range × min/max) index so
// scoped scans decode only the blocks a query touches. Exact byte
// layout: DESIGN.md, "SMCOLV2 layout & block index".
// ---------------------------------------------------------------------------

inline constexpr size_t kColumnBlockValues = 4096;

/// Streaming SMCOLV2 writer: households are appended one series at a
/// time, so a 1M-household tier never has to materialize its dataset in
/// memory. Usage: Open() → AppendHousehold()* → Finish(temperature).
class ColumnFileWriter {
 public:
  /// `block_values` is the encoded block size in values (header field;
  /// readers accept any value in [1, 2^20]).
  explicit ColumnFileWriter(std::string path,
                            size_t block_values = kColumnBlockValues);
  ~ColumnFileWriter();

  ColumnFileWriter(const ColumnFileWriter&) = delete;
  ColumnFileWriter& operator=(const ColumnFileWriter&) = delete;

  /// `hours` fixes the series length every appended household must match.
  Status Open(size_t hours);
  Status AppendHousehold(int64_t household_id,
                         std::span<const double> consumption);
  /// Writes the temperature column, the id dictionary, and the indexed
  /// footer, then closes the file. On any error the truncated file is
  /// removed.
  Status Finish(std::span<const double> temperature);

  /// One-shot convenience: serializes `dataset` as SMCOLV2.
  static Status WriteFile(const MeterDataset& dataset, const std::string& path,
                          size_t block_values = kColumnBlockValues);

 private:
  struct BlockEntry {
    uint64_t offset = 0;
    uint64_t encoded_bytes = 0;
    uint64_t row_begin = 0;
    uint64_t row_end = 0;
    uint64_t hour_begin = 0;
    uint64_t hour_end = 0;
    double min_value = 0.0;
    double max_value = 0.0;
    uint64_t checksum = 0;
  };

  Status FlushPending(bool final_flush);
  Status WriteBlock(std::span<const double> values, uint64_t value_begin,
                    bool temperature_column);
  Status WriteBytes(const void* data, size_t bytes);
  Status Fail(const std::string& message);

  std::string path_;
  size_t block_values_;
  size_t hours_ = 0;
  std::FILE* file_ = nullptr;
  uint64_t offset_ = 0;
  uint64_t values_written_ = 0;
  std::vector<int64_t> ids_;
  std::vector<double> pending_;
  std::vector<uint8_t> scratch_;
  std::vector<BlockEntry> consumption_blocks_;
  std::vector<BlockEntry> temperature_blocks_;
};

/// Memory-mapped SMCOLV2 reader. Open() validates the header and footer
/// checksums and the block index; decode calls verify each block's
/// checksum and bounds before touching its payload, so hostile files
/// yield a clean `Status` instead of a crash or overread.
class CompressedColumnFile {
 public:
  CompressedColumnFile() = default;
  ~CompressedColumnFile();

  CompressedColumnFile(const CompressedColumnFile&) = delete;
  CompressedColumnFile& operator=(const CompressedColumnFile&) = delete;
  CompressedColumnFile(CompressedColumnFile&&) noexcept;
  CompressedColumnFile& operator=(CompressedColumnFile&&) noexcept;

  Status Open(const std::string& path);
  void Close();
  bool is_open() const { return base_ != nullptr; }

  size_t num_households() const { return num_households_; }
  size_t hours() const { return hours_; }
  size_t block_values() const { return block_values_; }
  int64_t file_bytes() const { return static_cast<int64_t>(size_); }
  /// The validated header and footer checksums. With file_bytes() they
  /// identify the file's content: the footer carries every block's
  /// checksum, so two files that agree on all three hold the same bytes
  /// wherever VerifyBlocks() passes on both.
  uint64_t header_checksum() const { return header_checksum_; }
  uint64_t footer_checksum() const { return footer_checksum_; }
  size_t num_consumption_blocks() const { return consumption_blocks_.size(); }
  /// Consumption + temperature + id blocks: the denominator of the
  /// pruning ratio a scoped scan reports.
  size_t num_blocks() const {
    return consumption_blocks_.size() + temperature_blocks_.size() +
           id_blocks_.size();
  }

  /// Checks every block's payload against its footer checksum without
  /// decoding it: the integrity pass of an open whose decode is skipped.
  Status VerifyBlocks() const;

  /// What a scan of `scope` covers in the block index: the blocks it
  /// must decode and their raw bytes, and the blocks it prunes. Computed
  /// from the index alone; DecodeScoped reports exactly this.
  ScanStats Coverage(const ScanScope& scope) const;

  /// Decodes the whole table. Stats (optional) count every block as
  /// decoded. DecodeAll and DecodeScoped add the blocks they decode and
  /// prune to the `table.scan.blocks_{decoded,pruned}` counters.
  Status DecodeAll(std::vector<int64_t>* ids, std::vector<double>* consumption,
                   std::vector<double>* temperature, ScanStats* stats) const;

  /// Decodes only the blocks intersecting `scope`. Outputs are dense over
  /// the scoped rectangle: `consumption` holds hour_count values per
  /// scoped row, `ids` the scoped households, `temperature` the scoped
  /// hour window.
  Status DecodeScoped(const ScanScope& scope, std::vector<int64_t>* ids,
                      std::vector<double>* consumption,
                      std::vector<double>* temperature,
                      ScanStats* stats) const;

  /// Per-block access for the simulated-HDFS split path.
  struct BlockInfo {
    size_t value_begin = 0;
    size_t value_count = 0;
    size_t row_begin = 0;
    size_t row_end = 0;
    int64_t encoded_bytes = 0;
    int64_t file_offset = 0;
  };
  BlockInfo consumption_block(size_t index) const;
  /// Appends the block's `value_count` consumption values to `values`.
  Status DecodeConsumptionBlock(size_t index,
                                std::vector<double>* values) const;
  Status DecodeIds(std::vector<int64_t>* ids) const;
  Status DecodeTemperature(std::vector<double>* temperature) const;

 private:
  struct BlockEntry {
    uint64_t offset;
    uint64_t encoded_bytes;
    uint64_t row_begin;
    uint64_t row_end;
    uint64_t hour_begin;
    uint64_t hour_end;
    double min_value;
    double max_value;
    uint64_t checksum;
  };

  Status Parse(const std::string& origin);
  // Values in block `index` of a column holding `total` values.
  size_t BlockLength(size_t index, size_t total) const {
    return std::min(block_values_, total - index * block_values_);
  }
  // The block-index pruning rule: whether a scan of `scope` needs block
  // `index` of the id, temperature or consumption column.
  bool NeedsIdBlock(size_t index, const ScanScope& scope) const;
  bool NeedsTemperatureBlock(size_t index, const ScanScope& scope) const;
  bool NeedsConsumptionBlock(size_t index, const ScanScope& scope) const;
  Status CheckBlock(const BlockEntry& entry, size_t expected_values,
                    std::span<const uint8_t>* out) const;
  Status DecodeDoubleBlocks(const std::vector<BlockEntry>& entries,
                            size_t total_values, std::vector<double>* out,
                            ScanStats* stats) const;

  void* base_ = nullptr;
  size_t size_ = 0;
  size_t num_households_ = 0;
  size_t hours_ = 0;
  size_t block_values_ = 0;
  uint64_t header_checksum_ = 0;
  uint64_t footer_checksum_ = 0;
  std::vector<BlockEntry> consumption_blocks_;
  std::vector<BlockEntry> temperature_blocks_;
  std::vector<BlockEntry> id_blocks_;
};

/// Column-file format sniffing: 1 for SMCOLV1, 2 for SMCOLV2,
/// Corruption for anything else.
Result<int> SniffColumnFileFormat(const std::string& path);

}  // namespace smartmeter::storage

#endif  // SMARTMETER_STORAGE_COLUMN_STORE_H_
