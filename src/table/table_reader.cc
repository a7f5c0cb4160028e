#include "table/table_reader.h"

#include <map>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/csv.h"

namespace smartmeter::table {

Result<MeterDataset> ReadDatasetFromSource(const DataSource& source) {
  SM_RETURN_IF_ERROR(source.Validate());
  switch (source.layout) {
    case DataSource::Layout::kSingleCsv:
      return storage::ReadReadingsCsv(source.files.front());
    case DataSource::Layout::kPartitionedDir:
    case DataSource::Layout::kWholeFileDir:
      return storage::ReadReadingsCsvFiles(source.files);
    case DataSource::Layout::kHouseholdLines:
      return storage::ReadHouseholdLinesCsv(source.files.front());
    case DataSource::Layout::kColumnFile: {
      ColumnFileReader reader(source.files.front());
      SM_RETURN_IF_ERROR(reader.Open());
      SM_ASSIGN_OR_RETURN(ColumnarBatch batch, reader.NewBatch());
      MeterDataset dataset;
      dataset.SetTemperature(std::vector<double>(batch.temperature().begin(),
                                                 batch.temperature().end()));
      for (size_t i = 0; i < batch.count(); ++i) {
        const SeriesSlice series = batch.consumption(i);
        dataset.AddConsumer({batch.household_id(i),
                             std::vector<double>(series.begin(),
                                                 series.end())});
      }
      return dataset;
    }
  }
  return Status::InvalidArgument("unknown data source layout");
}

Result<ScopedBatch> TableReader::NewScopedBatch(
    const storage::ScanScope& scope) const {
  if (!scope.whole_hours()) {
    return Status::NotSupported(
        "hour-window scans need a block-indexed column file");
  }
  SM_ASSIGN_OR_RETURN(ColumnarBatch batch, NewBatch());
  ScopedBatch scoped;
  const size_t begin = scope.RowBegin(batch.count());
  const size_t end = scope.RowEnd(batch.count());
  SM_ASSIGN_OR_RETURN(scoped.batch, batch.Slice(begin, end - begin));
  return scoped;
}

// ---------------------------------------------------------------------------
// CsvTableReader
// ---------------------------------------------------------------------------

CsvTableReader::CsvTableReader(DataSource source)
    : source_(std::move(source)) {}

Status CsvTableReader::Open() {
  open_ = false;
  SM_ASSIGN_OR_RETURN(dataset_, ReadDatasetFromSource(source_));
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> CsvTableReader::NewBatch() const {
  if (!open_) return Status::Internal("csv reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// ColumnFileReader
// ---------------------------------------------------------------------------

// One SMCOLV2 content's decoded columns. `decode_mu` is held by the
// Open() that decodes; `decoded` flips to true under it once the columns
// are complete, after which they are never written again.
struct ColumnFileReader::DecodedImage {
  std::mutex decode_mu;
  bool decoded = false;
  std::vector<int64_t> ids;
  std::vector<double> consumption;
  std::vector<double> temperature;
};

Result<std::shared_ptr<const ColumnFileReader::DecodedImage>>
ColumnFileReader::AttachImage(const storage::CompressedColumnFile& file,
                              storage::ScanStats* decoded) {
  // Keyed by content, not path + mtime: the columnar cache re-touches a
  // file's mtime on every hit, and a path can be rewritten in place.
  using Key = std::tuple<int64_t, uint64_t, uint64_t>;
  static std::mutex registry_mu;
  static std::map<Key, std::weak_ptr<DecodedImage>> registry;

  std::shared_ptr<DecodedImage> image;
  {
    std::lock_guard<std::mutex> lock(registry_mu);
    std::erase_if(registry,
                  [](const auto& entry) { return entry.second.expired(); });
    std::weak_ptr<DecodedImage>& slot = registry[Key{
        file.file_bytes(), file.header_checksum(), file.footer_checksum()}];
    image = slot.lock();
    if (image == nullptr) {
      image = std::make_shared<DecodedImage>();
      slot = image;
    }
  }
  bool shared = false;
  {
    // Concurrent first Open()s of one content wait here for one decode.
    std::lock_guard<std::mutex> lock(image->decode_mu);
    shared = image->decoded;
    if (!shared) {
      SM_RETURN_IF_ERROR(file.DecodeAll(&image->ids, &image->consumption,
                                        &image->temperature, decoded));
      image->decoded = true;
    }
  }
  if (shared) {
    // Only the decode is shared: this mapping's own bytes are checked
    // (DecodeAll checks them on the decoding path).
    SM_RETURN_IF_ERROR(file.VerifyBlocks());
    static obs::Counter* shared_opens =
        obs::MetricsRegistry::Global().GetCounter("table.image.shared_opens");
    shared_opens->Increment();
  }
  return std::shared_ptr<const DecodedImage>(std::move(image));
}

ColumnFileReader::ColumnFileReader(std::string path)
    : path_(std::move(path)) {}

Status ColumnFileReader::Open() {
  format_version_ = 0;
  open_stats_ = {};
  image_.reset();
  SM_ASSIGN_OR_RETURN(const int version,
                      storage::SniffColumnFileFormat(path_));
  if (version == 1) {
    SM_RETURN_IF_ERROR(store_.OpenMapped(path_));
  } else {
    SM_RETURN_IF_ERROR(compressed_.Open(path_));
    SM_ASSIGN_OR_RETURN(image_, AttachImage(compressed_, &open_stats_));
  }
  format_version_ = version;
  return Status::OK();
}

Result<ColumnarBatch> ColumnFileReader::NewBatch() const {
  if (format_version_ == 1) {
    return ColumnarBatch::FromContiguous(store_.household_ids(),
                                         store_.consumption_column(),
                                         store_.temperature(), store_.hours());
  }
  if (format_version_ == 2) {
    return ColumnarBatch::FromContiguous(image_->ids, image_->consumption,
                                         image_->temperature,
                                         compressed_.hours());
  }
  return Status::Internal("column file not open");
}

Result<ScopedBatch> ColumnFileReader::NewScopedBatch(
    const storage::ScanScope& scope) const {
  if (format_version_ != 2) {
    // SMCOLV1 has no block index; slice the mapped column by rows.
    return TableReader::NewScopedBatch(scope);
  }
  SM_ASSIGN_OR_RETURN(ColumnarBatch full, NewBatch());
  const size_t r0 = scope.RowBegin(full.count());
  const size_t r1 = scope.RowEnd(full.count());
  const size_t h0 = scope.HourBegin(full.hours());
  const size_t window = scope.HourEnd(full.hours()) - h0;
  ScopedBatch scoped;
  if (window == full.hours()) {
    SM_ASSIGN_OR_RETURN(scoped.batch, full.Slice(r0, r1 - r0));
  } else {
    // An hour window is strided in the household-major column: one
    // subspan per scoped row.
    const SeriesSlice temperature = full.temperature().subspan(h0, window);
    std::vector<int64_t> ids(full.household_ids().begin() + r0,
                             full.household_ids().begin() + r1);
    std::vector<SeriesSlice> series;
    series.reserve(r1 - r0);
    for (size_t r = r0; r < r1; ++r) {
      series.push_back(full.consumption(r).subspan(h0, window));
    }
    // FromSlices takes its width from the first series, so a scope with
    // no rows keeps the window's width through an empty contiguous view.
    SM_ASSIGN_OR_RETURN(
        scoped.batch,
        series.empty()
            ? ColumnarBatch::FromContiguous({}, {}, temperature, window)
            : ColumnarBatch::FromSlices(std::move(ids), std::move(series),
                                        temperature));
  }
  scoped.owner = image_;
  scoped.stats = compressed_.Coverage(scope);
  return scoped;
}

// ---------------------------------------------------------------------------
// RowStoreReader
// ---------------------------------------------------------------------------

RowStoreReader::RowStoreReader(const storage::RowStore* store)
    : store_(store) {}

Status RowStoreReader::Open() {
  open_ = false;
  SM_ASSIGN_OR_RETURN(dataset_, store_->ScanAll());
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> RowStoreReader::NewBatch() const {
  if (!open_) return Status::Internal("row store reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// ArrayStoreReader
// ---------------------------------------------------------------------------

ArrayStoreReader::ArrayStoreReader(const storage::ArrayStore* store)
    : store_(store) {}

Status ArrayStoreReader::Open() {
  open_ = false;
  SM_ASSIGN_OR_RETURN(dataset_, store_->ReadAll());
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> ArrayStoreReader::NewBatch() const {
  if (!open_) return Status::Internal("array store reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// BlockStoreReader
// ---------------------------------------------------------------------------

BlockStoreReader::BlockStoreReader(const cluster::BlockStore* store,
                                   bool splittable)
    : store_(store), splittable_(splittable) {}

Status BlockStoreReader::Open() {
  open_ = false;
  const std::vector<cluster::InputSplit> splits =
      splittable_ ? store_->SplittableSplits() : store_->WholeFileSplits();
  std::vector<storage::ReadingRow> rows;
  for (const cluster::InputSplit& split : splits) {
    SM_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                        cluster::ReadSplitLines(split));
    rows.reserve(rows.size() + lines.size());
    for (const std::string& line : lines) {
      SM_ASSIGN_OR_RETURN(storage::ReadingRow row,
                          storage::ParseReadingRow(line));
      rows.push_back(row);
    }
  }
  SM_ASSIGN_OR_RETURN(dataset_, storage::AssembleReadingRows(rows));
  open_ = true;
  return Status::OK();
}

Result<ColumnarBatch> BlockStoreReader::NewBatch() const {
  if (!open_) return Status::Internal("block store reader not open");
  return ColumnarBatch::FromDataset(dataset_);
}

// ---------------------------------------------------------------------------
// DatasetReader
// ---------------------------------------------------------------------------

DatasetReader::DatasetReader(const MeterDataset* dataset)
    : dataset_(dataset) {}

Status DatasetReader::Open() { return dataset_->Validate(); }

Result<ColumnarBatch> DatasetReader::NewBatch() const {
  return ColumnarBatch::FromDataset(*dataset_);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TableReader>> MakeReader(const DataSource& source) {
  SM_RETURN_IF_ERROR(source.Validate());
  if (source.layout == DataSource::Layout::kColumnFile) {
    return std::unique_ptr<TableReader>(
        new ColumnFileReader(source.files.front()));
  }
  return std::unique_ptr<TableReader>(new CsvTableReader(source));
}

}  // namespace smartmeter::table
