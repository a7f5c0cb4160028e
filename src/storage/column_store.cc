#include "storage/column_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/block_codec.h"

namespace smartmeter::storage {

namespace {

constexpr char kMagic[8] = {'S', 'M', 'C', 'O', 'L', 'V', '1', '\0'};
constexpr size_t kHeaderBytes = 8 + 8 + 8;

constexpr char kMagicV2[8] = {'S', 'M', 'C', 'O', 'L', 'V', '2', '\0'};
// magic + households + hours + block_values + footer_offset + checksum.
constexpr size_t kV2HeaderBytes = 8 + 8 + 8 + 8 + 8 + 8;
// offset, bytes, row range (2), hour range (2), min/max, checksum.
constexpr size_t kV2EntryBytes = 9 * 8;
// Consumption / temperature / id entry counts preceding the entries.
constexpr size_t kV2FooterCounts = 3 * 8;
constexpr size_t kV2MaxBlockValues = size_t{1} << 20;

// `table.scan.blocks_{decoded,pruned}` count real decode work: a
// resident scan that slices already-decoded buffers adds nothing.
void CountDecodeWork(const ScanStats& work) {
  static obs::Counter* decoded =
      obs::MetricsRegistry::Global().GetCounter("table.scan.blocks_decoded");
  static obs::Counter* pruned =
      obs::MetricsRegistry::Global().GetCounter("table.scan.blocks_pruned");
  decoded->Add(work.blocks_decoded);
  pruned->Add(work.blocks_pruned);
}

size_t FileBytes(size_t households, size_t hours) {
  return kHeaderBytes + households * sizeof(int64_t) +
         households * hours * sizeof(double) + hours * sizeof(double);
}

// FileBytes for untrusted (on-disk) header values: fails on arithmetic
// overflow so a corrupt header cannot wrap the size check below and make
// a tiny file look consistent with a huge shape.
bool CheckedFileBytes(uint64_t households, uint64_t hours, size_t* out) {
  uint64_t ids = 0;
  uint64_t rows = 0;
  uint64_t consumption = 0;
  uint64_t temperature = 0;
  uint64_t total = kHeaderBytes;
  if (__builtin_mul_overflow(households, sizeof(int64_t), &ids) ||
      __builtin_mul_overflow(households, hours, &rows) ||
      __builtin_mul_overflow(rows, sizeof(double), &consumption) ||
      __builtin_mul_overflow(hours, sizeof(double), &temperature) ||
      __builtin_add_overflow(total, ids, &total) ||
      __builtin_add_overflow(total, consumption, &total) ||
      __builtin_add_overflow(total, temperature, &total)) {
    return false;
  }
  *out = total;
  return true;
}

}  // namespace

ColumnStore::~ColumnStore() { Close(); }

ColumnStore::ColumnStore(ColumnStore&& other) noexcept {
  *this = std::move(other);
}

ColumnStore& ColumnStore::operator=(ColumnStore&& other) noexcept {
  if (this == &other) return *this;
  Close();
  mapped_base_ = other.mapped_base_;
  mapped_size_ = other.mapped_size_;
  owned_ = std::move(other.owned_);
  num_households_ = other.num_households_;
  hours_ = other.hours_;
  household_ids_ = other.household_ids_;
  consumption_ = other.consumption_;
  temperature_ = other.temperature_;
  other.mapped_base_ = nullptr;
  other.mapped_size_ = 0;
  other.num_households_ = 0;
  other.hours_ = 0;
  other.household_ids_ = nullptr;
  other.consumption_ = nullptr;
  other.temperature_ = nullptr;
  return *this;
}

void ColumnStore::Close() {
  if (mapped_base_ != nullptr) {
    ::munmap(mapped_base_, mapped_size_);
    mapped_base_ = nullptr;
    mapped_size_ = 0;
  }
  owned_.clear();
  owned_.shrink_to_fit();
  num_households_ = 0;
  hours_ = 0;
  household_ids_ = nullptr;
  consumption_ = nullptr;
  temperature_ = nullptr;
}

Status ColumnStore::WriteFile(const MeterDataset& dataset,
                              const std::string& path) {
  SM_RETURN_IF_ERROR(dataset.Validate());
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);

  auto write = [f](const void* data, size_t bytes) {
    return std::fwrite(data, 1, bytes, f) == bytes;
  };
  bool ok = write(kMagic, sizeof(kMagic));
  const uint64_t households = dataset.num_consumers();
  const uint64_t hours = dataset.hours();
  ok = ok && write(&households, sizeof(households));
  ok = ok && write(&hours, sizeof(hours));
  for (const ConsumerSeries& c : dataset.consumers()) {
    ok = ok && write(&c.household_id, sizeof(c.household_id));
  }
  for (const ConsumerSeries& c : dataset.consumers()) {
    ok = ok && write(c.consumption.data(),
                     c.consumption.size() * sizeof(double));
  }
  ok = ok && write(dataset.temperature().data(),
                   dataset.temperature().size() * sizeof(double));
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(path.c_str());  // Never leave a truncated columnar file.
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status ColumnStore::PointIntoBuffer(const uint8_t* base, size_t size,
                                    const std::string& origin) {
  if (size < kHeaderBytes || std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad columnar magic in " + origin);
  }
  uint64_t households = 0;
  uint64_t hours = 0;
  std::memcpy(&households, base + 8, sizeof(households));
  std::memcpy(&hours, base + 16, sizeof(hours));
  size_t expected = 0;
  if (!CheckedFileBytes(households, hours, &expected) || size != expected) {
    return Status::Corruption(StringPrintf(
        "columnar file %s has %zu bytes, inconsistent with header shape "
        "%llu x %llu",
        origin.c_str(), size, static_cast<unsigned long long>(households),
        static_cast<unsigned long long>(hours)));
  }
  num_households_ = households;
  hours_ = hours;
  const uint8_t* cursor = base + kHeaderBytes;
  household_ids_ = reinterpret_cast<const int64_t*>(cursor);
  cursor += households * sizeof(int64_t);
  consumption_ = reinterpret_cast<const double*>(cursor);
  cursor += households * hours * sizeof(double);
  temperature_ = reinterpret_cast<const double*>(cursor);
  return Status::OK();
}

Status ColumnStore::OpenMapped(const std::string& path) {
  Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return Status::Corruption(StringPrintf(
        "columnar file %s has %zu bytes, smaller than the %zu-byte header",
        path.c_str(), size, kHeaderBytes));
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed for " + path);
  }
  const Status st_parse =
      PointIntoBuffer(static_cast<const uint8_t*>(base), size, path);
  if (!st_parse.ok()) {
    ::munmap(base, size);
    return st_parse;
  }
  mapped_base_ = base;
  mapped_size_ = size;
  static obs::Counter* opens =
      obs::MetricsRegistry::Global().GetCounter("columnstore.opens");
  static obs::Counter* bytes_mapped =
      obs::MetricsRegistry::Global().GetCounter("columnstore.bytes_mapped");
  static obs::Counter* rows_mapped =
      obs::MetricsRegistry::Global().GetCounter("columnstore.rows_mapped");
  opens->Increment();
  bytes_mapped->Add(static_cast<int64_t>(size));
  rows_mapped->Add(static_cast<int64_t>(num_households_ * hours_));
  return Status::OK();
}

Status ColumnStore::LoadFromDataset(const MeterDataset& dataset) {
  Close();
  SM_RETURN_IF_ERROR(dataset.Validate());
  const size_t households = dataset.num_consumers();
  const size_t hours = dataset.hours();
  owned_.resize(FileBytes(households, hours));
  uint8_t* cursor = owned_.data();
  std::memcpy(cursor, kMagic, sizeof(kMagic));
  const uint64_t h64 = households;
  const uint64_t hr64 = hours;
  std::memcpy(cursor + 8, &h64, sizeof(h64));
  std::memcpy(cursor + 16, &hr64, sizeof(hr64));
  cursor += kHeaderBytes;
  for (const ConsumerSeries& c : dataset.consumers()) {
    std::memcpy(cursor, &c.household_id, sizeof(c.household_id));
    cursor += sizeof(c.household_id);
  }
  for (const ConsumerSeries& c : dataset.consumers()) {
    std::memcpy(cursor, c.consumption.data(), hours * sizeof(double));
    cursor += hours * sizeof(double);
  }
  std::memcpy(cursor, dataset.temperature().data(), hours * sizeof(double));
  const Status pointed =
      PointIntoBuffer(owned_.data(), owned_.size(), "<memory>");
  if (!pointed.ok()) Close();  // Don't hold the buffer for a dead store.
  return pointed;
}

// ---------------------------------------------------------------------------
// SMCOLV2
// ---------------------------------------------------------------------------

namespace {

void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }

uint64_t GetU64(const uint8_t* src) {
  uint64_t v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  uint8_t bytes[8];
  PutU64(bytes, v);
  out->insert(out->end(), bytes, bytes + sizeof(bytes));
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  uint8_t bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  out->insert(out->end(), bytes, bytes + sizeof(bytes));
}

size_t BlockCount(size_t values, size_t block_values) {
  return values == 0 ? 0 : (values - 1) / block_values + 1;
}

}  // namespace

ColumnFileWriter::ColumnFileWriter(std::string path, size_t block_values)
    : path_(std::move(path)), block_values_(block_values) {}

ColumnFileWriter::~ColumnFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(path_.c_str());  // Finish() never ran: drop the partial file.
  }
}

Status ColumnFileWriter::Fail(const std::string& message) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    std::remove(path_.c_str());
  }
  return Status::IOError(message + ": " + path_);
}

Status ColumnFileWriter::WriteBytes(const void* data, size_t bytes) {
  if (std::fwrite(data, 1, bytes, file_) != bytes) {
    return Fail("short write");
  }
  offset_ += bytes;
  return Status::OK();
}

Status ColumnFileWriter::Open(size_t hours) {
  if (file_ != nullptr) {
    return Status::InvalidArgument("column writer already open: " + path_);
  }
  if (block_values_ < 1 || block_values_ > kV2MaxBlockValues) {
    return Status::InvalidArgument(
        StringPrintf("block_values %zu outside [1, %zu]", block_values_,
                     kV2MaxBlockValues));
  }
  hours_ = hours;
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) return Status::IOError("cannot open " + path_);
  const std::vector<uint8_t> placeholder(kV2HeaderBytes, 0);
  return WriteBytes(placeholder.data(), placeholder.size());
}

Status ColumnFileWriter::WriteBlock(std::span<const double> values,
                                    uint64_t value_begin,
                                    bool temperature_column) {
  scratch_.clear();
  codec::EncodeDoubles(values, &scratch_);
  BlockEntry entry;
  entry.offset = offset_;
  entry.encoded_bytes = scratch_.size();
  if (temperature_column) {
    entry.hour_begin = value_begin;
    entry.hour_end = value_begin + values.size();
  } else {
    entry.row_begin = value_begin / hours_;
    entry.row_end = (value_begin + values.size() - 1) / hours_ + 1;
    if (entry.row_end - entry.row_begin > 1) {
      entry.hour_end = hours_;  // Spans full rows: every hour is inside.
    } else {
      entry.hour_begin = value_begin % hours_;
      entry.hour_end = (value_begin + values.size() - 1) % hours_ + 1;
    }
  }
  entry.min_value = values[0];
  entry.max_value = values[0];
  for (double v : values) {
    entry.min_value = std::min(entry.min_value, v);
    entry.max_value = std::max(entry.max_value, v);
  }
  entry.checksum = codec::Fnv1a(scratch_, codec::Fnv1aSeed());
  SM_RETURN_IF_ERROR(WriteBytes(scratch_.data(), scratch_.size()));
  (temperature_column ? temperature_blocks_ : consumption_blocks_)
      .push_back(entry);
  return Status::OK();
}

Status ColumnFileWriter::FlushPending(bool final_flush) {
  if (pending_.empty()) return Status::OK();
  if (!final_flush && pending_.size() < block_values_) return Status::OK();
  const uint64_t begin = values_written_;
  values_written_ += pending_.size();
  SM_RETURN_IF_ERROR(WriteBlock(pending_, begin, /*temperature_column=*/false));
  pending_.clear();
  return Status::OK();
}

Status ColumnFileWriter::AppendHousehold(int64_t household_id,
                                         std::span<const double> consumption) {
  if (file_ == nullptr) {
    return Status::InvalidArgument("column writer is not open: " + path_);
  }
  if (consumption.size() != hours_) {
    return Status::InvalidArgument(StringPrintf(
        "household %lld has %zu hours, file is %zu hours wide",
        static_cast<long long>(household_id), consumption.size(), hours_));
  }
  ids_.push_back(household_id);
  size_t taken = 0;
  while (taken < consumption.size()) {
    const size_t take = std::min(block_values_ - pending_.size(),
                                 consumption.size() - taken);
    pending_.insert(pending_.end(), consumption.begin() + taken,
                    consumption.begin() + taken + take);
    taken += take;
    if (pending_.size() == block_values_) {
      SM_RETURN_IF_ERROR(FlushPending(/*final_flush=*/false));
    }
  }
  return Status::OK();
}

Status ColumnFileWriter::Finish(std::span<const double> temperature) {
  if (file_ == nullptr) {
    return Status::InvalidArgument("column writer is not open: " + path_);
  }
  if (temperature.size() != hours_) {
    return Status::InvalidArgument(
        StringPrintf("temperature has %zu hours, file is %zu hours wide",
                     temperature.size(), hours_));
  }
  SM_RETURN_IF_ERROR(FlushPending(/*final_flush=*/true));
  for (size_t begin = 0; begin < temperature.size(); begin += block_values_) {
    const size_t count = std::min(block_values_, temperature.size() - begin);
    SM_RETURN_IF_ERROR(WriteBlock(temperature.subspan(begin, count), begin,
                                  /*temperature_column=*/true));
  }
  std::vector<BlockEntry> id_blocks;
  for (size_t begin = 0; begin < ids_.size(); begin += block_values_) {
    const size_t count = std::min(block_values_, ids_.size() - begin);
    scratch_.clear();
    codec::EncodeInts(std::span<const int64_t>(ids_).subspan(begin, count),
                      &scratch_);
    BlockEntry entry;
    entry.offset = offset_;
    entry.encoded_bytes = scratch_.size();
    entry.row_begin = begin;
    entry.row_end = begin + count;
    entry.min_value = static_cast<double>(
        *std::min_element(ids_.begin() + begin, ids_.begin() + begin + count));
    entry.max_value = static_cast<double>(
        *std::max_element(ids_.begin() + begin, ids_.begin() + begin + count));
    entry.checksum = codec::Fnv1a(scratch_, codec::Fnv1aSeed());
    SM_RETURN_IF_ERROR(WriteBytes(scratch_.data(), scratch_.size()));
    id_blocks.push_back(entry);
  }

  const uint64_t footer_offset = offset_;
  std::vector<uint8_t> footer;
  AppendU64(&footer, consumption_blocks_.size());
  AppendU64(&footer, temperature_blocks_.size());
  AppendU64(&footer, id_blocks.size());
  const auto append_entries = [&footer](const std::vector<BlockEntry>& list) {
    for (const BlockEntry& entry : list) {
      AppendU64(&footer, entry.offset);
      AppendU64(&footer, entry.encoded_bytes);
      AppendU64(&footer, entry.row_begin);
      AppendU64(&footer, entry.row_end);
      AppendU64(&footer, entry.hour_begin);
      AppendU64(&footer, entry.hour_end);
      AppendF64(&footer, entry.min_value);
      AppendF64(&footer, entry.max_value);
      AppendU64(&footer, entry.checksum);
    }
  };
  append_entries(consumption_blocks_);
  append_entries(temperature_blocks_);
  append_entries(id_blocks);
  AppendU64(&footer, codec::Fnv1a(footer, codec::Fnv1aSeed()));
  SM_RETURN_IF_ERROR(WriteBytes(footer.data(), footer.size()));

  uint8_t header[kV2HeaderBytes];
  std::memcpy(header, kMagicV2, sizeof(kMagicV2));
  PutU64(header + 8, ids_.size());
  PutU64(header + 16, hours_);
  PutU64(header + 24, block_values_);
  PutU64(header + 32, footer_offset);
  PutU64(header + 40,
         codec::Fnv1a(std::span<const uint8_t>(header, 40), codec::Fnv1aSeed()));
  if (std::fseek(file_, 0, SEEK_SET) != 0) return Fail("cannot rewind");
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
    return Fail("short header rewrite");
  }
  std::FILE* file = file_;
  file_ = nullptr;
  if (std::fclose(file) != 0) {
    std::remove(path_.c_str());
    return Status::IOError("close failed: " + path_);
  }
  return Status::OK();
}

Status ColumnFileWriter::WriteFile(const MeterDataset& dataset,
                                   const std::string& path,
                                   size_t block_values) {
  SM_RETURN_IF_ERROR(dataset.Validate());
  ColumnFileWriter writer(path, block_values);
  SM_RETURN_IF_ERROR(writer.Open(dataset.hours()));
  for (const ConsumerSeries& c : dataset.consumers()) {
    SM_RETURN_IF_ERROR(writer.AppendHousehold(c.household_id, c.consumption));
  }
  return writer.Finish(dataset.temperature());
}

CompressedColumnFile::~CompressedColumnFile() { Close(); }

CompressedColumnFile::CompressedColumnFile(
    CompressedColumnFile&& other) noexcept {
  *this = std::move(other);
}

CompressedColumnFile& CompressedColumnFile::operator=(
    CompressedColumnFile&& other) noexcept {
  if (this == &other) return *this;
  Close();
  base_ = other.base_;
  size_ = other.size_;
  num_households_ = other.num_households_;
  hours_ = other.hours_;
  block_values_ = other.block_values_;
  header_checksum_ = other.header_checksum_;
  footer_checksum_ = other.footer_checksum_;
  consumption_blocks_ = std::move(other.consumption_blocks_);
  temperature_blocks_ = std::move(other.temperature_blocks_);
  id_blocks_ = std::move(other.id_blocks_);
  other.base_ = nullptr;
  other.size_ = 0;
  other.num_households_ = 0;
  other.hours_ = 0;
  other.block_values_ = 0;
  other.header_checksum_ = 0;
  other.footer_checksum_ = 0;
  return *this;
}

void CompressedColumnFile::Close() {
  if (base_ != nullptr) {
    ::munmap(base_, size_);
    base_ = nullptr;
  }
  size_ = 0;
  num_households_ = 0;
  hours_ = 0;
  block_values_ = 0;
  header_checksum_ = 0;
  footer_checksum_ = 0;
  consumption_blocks_.clear();
  temperature_blocks_.clear();
  id_blocks_.clear();
}

Status CompressedColumnFile::Parse(const std::string& origin) {
  const auto* base = static_cast<const uint8_t*>(base_);
  if (size_ < kV2HeaderBytes ||
      std::memcmp(base, kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::Corruption("bad SMCOLV2 magic in " + origin);
  }
  if (GetU64(base + 40) !=
      codec::Fnv1a(std::span<const uint8_t>(base, 40), codec::Fnv1aSeed())) {
    return Status::Corruption("SMCOLV2 header checksum mismatch in " + origin);
  }
  const uint64_t households = GetU64(base + 8);
  const uint64_t hours = GetU64(base + 16);
  const uint64_t block_values = GetU64(base + 24);
  const uint64_t footer_offset = GetU64(base + 32);
  if (block_values < 1 || block_values > kV2MaxBlockValues) {
    return Status::Corruption("SMCOLV2 block size out of range in " + origin);
  }
  uint64_t total_values = 0;
  if (__builtin_mul_overflow(households, hours, &total_values)) {
    return Status::Corruption("SMCOLV2 shape overflows in " + origin);
  }
  const size_t cons_blocks = BlockCount(total_values, block_values);
  const size_t temp_blocks = BlockCount(hours, block_values);
  const size_t id_count = BlockCount(households, block_values);
  uint64_t entries = 0;
  uint64_t footer_bytes = 0;
  if (__builtin_add_overflow(static_cast<uint64_t>(cons_blocks),
                             static_cast<uint64_t>(temp_blocks), &entries) ||
      __builtin_add_overflow(entries, static_cast<uint64_t>(id_count),
                             &entries) ||
      __builtin_mul_overflow(entries, uint64_t{kV2EntryBytes},
                             &footer_bytes) ||
      __builtin_add_overflow(footer_bytes, uint64_t{kV2FooterCounts + 8},
                             &footer_bytes)) {
    return Status::Corruption("SMCOLV2 footer size overflows in " + origin);
  }
  if (footer_offset < kV2HeaderBytes || footer_offset > size_ ||
      size_ - footer_offset != footer_bytes) {
    return Status::Corruption(StringPrintf(
        "SMCOLV2 file %s: footer at %llu inconsistent with %zu-byte file",
        origin.c_str(), static_cast<unsigned long long>(footer_offset),
        size_));
  }
  const uint8_t* footer = base + footer_offset;
  const size_t footer_body = static_cast<size_t>(footer_bytes) - 8;
  if (GetU64(footer + footer_body) !=
      codec::Fnv1a(std::span<const uint8_t>(footer, footer_body),
                   codec::Fnv1aSeed())) {
    return Status::Corruption("SMCOLV2 footer checksum mismatch in " + origin);
  }
  if (GetU64(footer) != cons_blocks || GetU64(footer + 8) != temp_blocks ||
      GetU64(footer + 16) != id_count) {
    return Status::Corruption("SMCOLV2 block counts disagree with shape in " +
                              origin);
  }

  num_households_ = households;
  hours_ = hours;
  block_values_ = block_values;
  header_checksum_ = GetU64(base + 40);
  footer_checksum_ = GetU64(footer + footer_body);
  const uint8_t* cursor = footer + kV2FooterCounts;
  const auto parse_entries = [&cursor](std::vector<BlockEntry>* list,
                                       size_t count) {
    list->resize(count);
    for (BlockEntry& entry : *list) {
      entry.offset = GetU64(cursor);
      entry.encoded_bytes = GetU64(cursor + 8);
      entry.row_begin = GetU64(cursor + 16);
      entry.row_end = GetU64(cursor + 24);
      entry.hour_begin = GetU64(cursor + 32);
      entry.hour_end = GetU64(cursor + 40);
      std::memcpy(&entry.min_value, cursor + 48, sizeof(double));
      std::memcpy(&entry.max_value, cursor + 56, sizeof(double));
      entry.checksum = GetU64(cursor + 64);
      cursor += kV2EntryBytes;
    }
  };
  parse_entries(&consumption_blocks_, cons_blocks);
  parse_entries(&temperature_blocks_, temp_blocks);
  parse_entries(&id_blocks_, id_count);

  // Every entry must point inside the data section, and its declared
  // (household × hour) ranges must match the ranges the writer derives
  // from the block's value positions -- a mislabeled index would silently
  // misroute pruning decisions.
  const auto check_entry = [&](const BlockEntry& entry, uint64_t row_begin,
                               uint64_t row_end, uint64_t hour_begin,
                               uint64_t hour_end) -> Status {
    uint64_t end = 0;
    if (entry.offset < kV2HeaderBytes ||
        entry.encoded_bytes < codec::kBlockHeaderBytes ||
        __builtin_add_overflow(entry.offset, entry.encoded_bytes, &end) ||
        end > footer_offset) {
      return Status::Corruption("SMCOLV2 block outside data section in " +
                                origin);
    }
    if (entry.row_begin != row_begin || entry.row_end != row_end ||
        entry.hour_begin != hour_begin || entry.hour_end != hour_end) {
      return Status::Corruption("SMCOLV2 block index mislabels a block in " +
                                origin);
    }
    return Status::OK();
  };
  for (size_t i = 0; i < consumption_blocks_.size(); ++i) {
    const uint64_t v0 = i * block_values;
    const uint64_t v1 = std::min<uint64_t>(v0 + block_values, total_values);
    const uint64_t row_begin = v0 / hours;
    const uint64_t row_end = (v1 - 1) / hours + 1;
    uint64_t hour_begin = 0;
    uint64_t hour_end = hours;
    if (row_end - row_begin == 1) {
      hour_begin = v0 % hours;
      hour_end = (v1 - 1) % hours + 1;
    }
    SM_RETURN_IF_ERROR(check_entry(consumption_blocks_[i], row_begin, row_end,
                                   hour_begin, hour_end));
  }
  for (size_t i = 0; i < temperature_blocks_.size(); ++i) {
    const uint64_t h0 = i * block_values;
    const uint64_t h1 = std::min<uint64_t>(h0 + block_values, hours);
    SM_RETURN_IF_ERROR(check_entry(temperature_blocks_[i], 0, 0, h0, h1));
  }
  for (size_t i = 0; i < id_blocks_.size(); ++i) {
    const uint64_t r0 = i * block_values;
    const uint64_t r1 = std::min<uint64_t>(r0 + block_values, households);
    SM_RETURN_IF_ERROR(check_entry(id_blocks_[i], r0, r1, 0, 0));
  }
  return Status::OK();
}

Status CompressedColumnFile::Open(const std::string& path) {
  Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kV2HeaderBytes) {
    ::close(fd);
    return Status::Corruption(StringPrintf(
        "SMCOLV2 file %s has %zu bytes, smaller than the %zu-byte header",
        path.c_str(), size, kV2HeaderBytes));
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed for " + path);
  }
  base_ = base;
  size_ = size;
  const Status parsed = Parse(path);
  if (!parsed.ok()) {
    Close();
    return parsed;
  }
  static obs::Counter* opens =
      obs::MetricsRegistry::Global().GetCounter("columnstore.opens");
  static obs::Counter* bytes_mapped =
      obs::MetricsRegistry::Global().GetCounter("columnstore.bytes_mapped");
  static obs::Counter* rows_mapped =
      obs::MetricsRegistry::Global().GetCounter("columnstore.rows_mapped");
  opens->Increment();
  bytes_mapped->Add(static_cast<int64_t>(size));
  rows_mapped->Add(static_cast<int64_t>(num_households_ * hours_));
  return Status::OK();
}

Status CompressedColumnFile::CheckBlock(const BlockEntry& entry,
                                        size_t expected_values,
                                        std::span<const uint8_t>* out) const {
  const auto* base = static_cast<const uint8_t*>(base_);
  const std::span<const uint8_t> bytes(base + entry.offset,
                                       entry.encoded_bytes);
  if (codec::Fnv1a(bytes, codec::Fnv1aSeed()) != entry.checksum) {
    return Status::Corruption("SMCOLV2 block checksum mismatch");
  }
  (void)expected_values;
  *out = bytes;
  return Status::OK();
}

Status CompressedColumnFile::DecodeDoubleBlocks(
    const std::vector<BlockEntry>& entries, size_t total_values,
    std::vector<double>* out, ScanStats* stats) const {
  out->clear();
  out->reserve(total_values);
  size_t remaining = total_values;
  for (const BlockEntry& entry : entries) {
    const size_t count = std::min(remaining, block_values_);
    std::span<const uint8_t> bytes;
    SM_RETURN_IF_ERROR(CheckBlock(entry, count, &bytes));
    SM_RETURN_IF_ERROR(codec::DecodeDoubles(bytes, count, out));
    remaining -= count;
    if (stats != nullptr) {
      ++stats->blocks_decoded;
      stats->bytes_decoded += static_cast<int64_t>(count * sizeof(double));
    }
  }
  return Status::OK();
}

Status CompressedColumnFile::DecodeIds(std::vector<int64_t>* ids) const {
  ids->clear();
  ids->reserve(num_households_);
  size_t remaining = num_households_;
  for (const BlockEntry& entry : id_blocks_) {
    const size_t count = std::min(remaining, block_values_);
    std::span<const uint8_t> bytes;
    SM_RETURN_IF_ERROR(CheckBlock(entry, count, &bytes));
    SM_RETURN_IF_ERROR(codec::DecodeInts(bytes, count, ids));
    remaining -= count;
  }
  return Status::OK();
}

Status CompressedColumnFile::DecodeTemperature(
    std::vector<double>* temperature) const {
  return DecodeDoubleBlocks(temperature_blocks_, hours_, temperature, nullptr);
}

Status CompressedColumnFile::VerifyBlocks() const {
  std::span<const uint8_t> bytes;
  for (const std::vector<BlockEntry>* column :
       {&consumption_blocks_, &temperature_blocks_, &id_blocks_}) {
    for (const BlockEntry& entry : *column) {
      SM_RETURN_IF_ERROR(CheckBlock(entry, 0, &bytes));
    }
  }
  return Status::OK();
}

bool CompressedColumnFile::NeedsIdBlock(size_t index,
                                        const ScanScope& scope) const {
  const size_t begin = index * block_values_;
  const size_t end = begin + BlockLength(index, num_households_);
  return end > scope.RowBegin(num_households_) &&
         begin < scope.RowEnd(num_households_);
}

bool CompressedColumnFile::NeedsTemperatureBlock(
    size_t index, const ScanScope& scope) const {
  const size_t begin = index * block_values_;
  const size_t end = begin + BlockLength(index, hours_);
  return end > scope.HourBegin(hours_) && begin < scope.HourEnd(hours_);
}

bool CompressedColumnFile::NeedsConsumptionBlock(
    size_t index, const ScanScope& scope) const {
  // Row ranges from the index, refined per row against the hour window:
  // a block is needed only when some scoped row's scoped hours fall
  // inside its value range.
  const BlockEntry& entry = consumption_blocks_[index];
  const size_t r0 = scope.RowBegin(num_households_);
  const size_t r1 = scope.RowEnd(num_households_);
  const size_t h0 = scope.HourBegin(hours_);
  const size_t h1 = scope.HourEnd(hours_);
  if (entry.row_end <= r0 || entry.row_begin >= r1 || h0 == h1) return false;
  const size_t v0 = index * block_values_;
  const size_t v1 = v0 + BlockLength(index, num_households_ * hours_);
  const size_t row_to = std::min<size_t>(entry.row_end, r1);
  for (size_t r = std::max<size_t>(entry.row_begin, r0); r < row_to; ++r) {
    if (std::max(v0, r * hours_ + h0) < std::min(v1, r * hours_ + h1)) {
      return true;
    }
  }
  return false;
}

ScanStats CompressedColumnFile::Coverage(const ScanScope& scope) const {
  ScanStats stats;
  stats.blocks_total = static_cast<int64_t>(num_blocks());
  stats.bytes_on_disk = file_bytes();
  const auto count = [&stats](bool needed, size_t values, size_t width) {
    if (needed) {
      ++stats.blocks_decoded;
      stats.bytes_decoded += static_cast<int64_t>(values * width);
    } else {
      ++stats.blocks_pruned;
    }
  };
  for (size_t i = 0; i < id_blocks_.size(); ++i) {
    count(NeedsIdBlock(i, scope), BlockLength(i, num_households_),
          sizeof(int64_t));
  }
  for (size_t i = 0; i < temperature_blocks_.size(); ++i) {
    count(NeedsTemperatureBlock(i, scope), BlockLength(i, hours_),
          sizeof(double));
  }
  for (size_t i = 0; i < consumption_blocks_.size(); ++i) {
    count(NeedsConsumptionBlock(i, scope),
          BlockLength(i, num_households_ * hours_), sizeof(double));
  }
  return stats;
}

Status CompressedColumnFile::DecodeAll(std::vector<int64_t>* ids,
                                       std::vector<double>* consumption,
                                       std::vector<double>* temperature,
                                       ScanStats* stats) const {
  ScanStats work;
  work.blocks_total = static_cast<int64_t>(num_blocks());
  work.bytes_on_disk = file_bytes();
  SM_RETURN_IF_ERROR(DecodeIds(ids));
  SM_RETURN_IF_ERROR(DecodeDoubleBlocks(consumption_blocks_,
                                        num_households_ * hours_, consumption,
                                        &work));
  SM_RETURN_IF_ERROR(
      DecodeDoubleBlocks(temperature_blocks_, hours_, temperature, &work));
  // Id blocks round out the decoded count; DecodeIds has no stats arm.
  work.blocks_decoded += static_cast<int64_t>(id_blocks_.size());
  work.bytes_decoded += static_cast<int64_t>(num_households_ * sizeof(int64_t));
  CountDecodeWork(work);
  if (stats != nullptr) stats->Add(work);
  return Status::OK();
}

Status CompressedColumnFile::DecodeScoped(const ScanScope& scope,
                                          std::vector<int64_t>* ids,
                                          std::vector<double>* consumption,
                                          std::vector<double>* temperature,
                                          ScanStats* stats) const {
  const size_t r0 = scope.RowBegin(num_households_);
  const size_t r1 = scope.RowEnd(num_households_);
  const size_t h0 = scope.HourBegin(hours_);
  const size_t h1 = scope.HourEnd(hours_);
  const size_t window = h1 - h0;

  ids->clear();
  ids->reserve(r1 - r0);
  std::vector<int64_t> id_scratch;
  for (size_t i = 0; i < id_blocks_.size(); ++i) {
    if (!NeedsIdBlock(i, scope)) continue;
    const size_t begin = i * block_values_;
    const size_t count = BlockLength(i, num_households_);
    std::span<const uint8_t> bytes;
    SM_RETURN_IF_ERROR(CheckBlock(id_blocks_[i], count, &bytes));
    id_scratch.clear();
    SM_RETURN_IF_ERROR(codec::DecodeInts(bytes, count, &id_scratch));
    const size_t from = std::max(begin, r0);
    const size_t to = std::min(begin + count, r1);
    ids->insert(ids->end(), id_scratch.begin() + (from - begin),
                id_scratch.begin() + (to - begin));
  }

  temperature->clear();
  temperature->reserve(window);
  std::vector<double> scratch;
  for (size_t i = 0; i < temperature_blocks_.size(); ++i) {
    if (!NeedsTemperatureBlock(i, scope)) continue;
    const size_t begin = i * block_values_;
    const size_t count = BlockLength(i, hours_);
    std::span<const uint8_t> bytes;
    SM_RETURN_IF_ERROR(CheckBlock(temperature_blocks_[i], count, &bytes));
    scratch.clear();
    SM_RETURN_IF_ERROR(codec::DecodeDoubles(bytes, count, &scratch));
    const size_t from = std::max(begin, h0);
    const size_t to = std::min(begin + count, h1);
    temperature->insert(temperature->end(), scratch.begin() + (from - begin),
                        scratch.begin() + (to - begin));
  }

  consumption->assign((r1 - r0) * window, 0.0);
  for (size_t i = 0; i < consumption_blocks_.size(); ++i) {
    if (!NeedsConsumptionBlock(i, scope)) continue;
    const BlockEntry& entry = consumption_blocks_[i];
    const size_t v0 = i * block_values_;
    const size_t v1 = v0 + BlockLength(i, num_households_ * hours_);
    std::span<const uint8_t> bytes;
    SM_RETURN_IF_ERROR(CheckBlock(entry, v1 - v0, &bytes));
    scratch.clear();
    SM_RETURN_IF_ERROR(codec::DecodeDoubles(bytes, v1 - v0, &scratch));
    const size_t row_from = std::max<size_t>(entry.row_begin, r0);
    const size_t row_to = std::min<size_t>(entry.row_end, r1);
    for (size_t r = row_from; r < row_to; ++r) {
      const size_t seg0 = std::max(v0, r * hours_ + h0);
      const size_t seg1 = std::min(v1, r * hours_ + h1);
      if (seg0 >= seg1) continue;
      const size_t dst = (r - r0) * window + (seg0 - (r * hours_ + h0));
      std::copy(scratch.begin() + (seg0 - v0), scratch.begin() + (seg1 - v0),
                consumption->begin() + dst);
    }
  }
  const ScanStats work = Coverage(scope);
  CountDecodeWork(work);
  if (stats != nullptr) stats->Add(work);
  return Status::OK();
}

CompressedColumnFile::BlockInfo CompressedColumnFile::consumption_block(
    size_t index) const {
  const BlockEntry& entry = consumption_blocks_[index];
  BlockInfo info;
  info.value_begin = index * block_values_;
  info.value_count =
      std::min(info.value_begin + block_values_, num_households_ * hours_) -
      info.value_begin;
  info.row_begin = entry.row_begin;
  info.row_end = entry.row_end;
  info.encoded_bytes = static_cast<int64_t>(entry.encoded_bytes);
  info.file_offset = static_cast<int64_t>(entry.offset);
  return info;
}

Status CompressedColumnFile::DecodeConsumptionBlock(
    size_t index, std::vector<double>* values) const {
  if (index >= consumption_blocks_.size()) {
    return Status::InvalidArgument("consumption block index out of range");
  }
  const BlockInfo info = consumption_block(index);
  std::span<const uint8_t> bytes;
  SM_RETURN_IF_ERROR(
      CheckBlock(consumption_blocks_[index], info.value_count, &bytes));
  return codec::DecodeDoubles(bytes, info.value_count, values);
}

Result<int> SniffColumnFileFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  char magic[8] = {0};
  const size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  if (got == sizeof(magic)) {
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) return 1;
    if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) return 2;
  }
  return Status::Corruption("unrecognized column file magic in " + path);
}

}  // namespace smartmeter::storage
