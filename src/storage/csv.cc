#include "storage/csv.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "simd/simd.h"

namespace smartmeter::storage {

namespace fs = std::filesystem;

namespace {

/// Block size of the streaming reader: big enough that the SIMD newline
/// scan amortizes the stdio call, small enough to stay cache-friendly.
constexpr size_t kCsvReadBlock = size_t{64} * 1024;

/// Block-buffered text writer. Fields are formatted with std::to_chars,
/// whose output is byte-identical to the printf conversions it replaces
/// ("%lld", "%zu", "%.Nf"), into a 64 KiB block written with one fwrite.
class CsvWriter {
 public:
  /// Room one field and its separator can take: "%.4f" of -DBL_MAX is
  /// 1 + 309 + 1 + 4 characters.
  static constexpr size_t kMaxField = 320;

  explicit CsvWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")), path_(path), block_(kBlock) {
    // Unbuffered stdio: each Flush() is one write, so its short count
    // is the file's.
    if (file_ != nullptr) std::setvbuf(file_, nullptr, _IONBF, 0);
  }
  ~CsvWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  Status OpenError() const {
    return Status::IOError("cannot open for writing: " + path_);
  }

  /// Makes room for `fields` more fields; false once a write came up
  /// short.
  bool Reserve(size_t fields) {
    return kBlock - used_ >= fields * kMaxField || Flush();
  }
  void Integer(long long v) { Advance(std::to_chars(Cursor(), End(), v)); }
  void Fixed(double v, int precision) {
    Advance(std::to_chars(Cursor(), End(), v, std::chars_format::fixed,
                          precision));
  }
  void Char(char c) { block_[used_++] = c; }

  /// Writes out the buffered bytes; false on a short write.
  bool Flush() {
    const bool complete = std::fwrite(block_.data(), 1, used_, file_) == used_;
    used_ = 0;
    return complete;
  }

 private:
  static constexpr size_t kBlock = size_t{64} * 1024;

  char* Cursor() { return block_.data() + used_; }
  char* End() { return block_.data() + kBlock; }
  void Advance(std::to_chars_result r) {
    used_ = static_cast<size_t>(r.ptr - block_.data());
  }

  FILE* file_;
  std::string path_;
  std::vector<char> block_;
  size_t used_ = 0;
};

Status ShortWrite() { return Status::IOError("short write"); }

/// Appends one reading-per-line row, "%lld,%zu,%.4f,%.2f\n".
bool PutReadingRow(CsvWriter& out, int64_t household_id, size_t hour,
                   double consumption, double temperature) {
  if (!out.Reserve(4)) return false;
  out.Integer(household_id);
  out.Char(',');
  out.Integer(static_cast<long long>(hour));
  out.Char(',');
  out.Fixed(consumption, 4);
  out.Char(',');
  out.Fixed(temperature, 2);
  out.Char('\n');
  return true;
}

Status WriteConsumerReadings(CsvWriter& out, const ConsumerSeries& consumer,
                             const std::vector<double>& temperature) {
  for (size_t h = 0; h < consumer.consumption.size(); ++h) {
    if (!PutReadingRow(out, consumer.household_id, h,
                       consumer.consumption[h], temperature[h])) {
      return ShortWrite();
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Exact row fast path
// ---------------------------------------------------------------------------

/// Digits of an id or hour the fast path takes; 9 always fit an int32.
constexpr int kMaxFastIntegerDigits = 9;
/// Digits of a decimal the fast path takes: every mantissa below 10^15 is
/// an exact double (< 2^53). Longer ones would round once on conversion
/// and again on division.
constexpr ptrdiff_t kMaxFastDigits = 15;
/// 10^0 .. 10^15, each an exact double.
constexpr auto kExactPow10 = [] {
  std::array<double, kMaxFastDigits + 1> powers{};
  double power = 1.0;
  for (double& p : powers) {
    p = power;
    power *= 10.0;
  }
  return powers;
}();

bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

/// Parses d{1,9} at `p`, advancing past it.
bool ParseFastInteger(const char*& p, const char* end, int32_t* out) {
  const char* const begin = p;
  int32_t value = 0;
  while (p != end && IsDigit(*p)) {
    if (p - begin == kMaxFastIntegerDigits) return false;
    value = value * 10 + (*p++ - '0');
  }
  *out = value;
  return p != begin;
}

/// Parses [-]d+[.d+] at `p`, advancing past it, as m / 10^k with m the
/// digits read as an integer and k the fraction digits. With at most 15
/// digits, m and 10^k are exact doubles and one IEEE division rounds
/// correctly, so the result is from_chars's correctly rounded value bit
/// for bit ("-0.00" gives -0.0).
bool ParseFastDecimal(const char*& p, const char* end, double* out) {
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  // Longer digit runs may wrap the mantissa; they are rejected below.
  uint64_t mantissa = 0;
  const auto digits = [&p, end, &mantissa] {
    const char* const begin = p;
    while (p != end && IsDigit(*p)) {
      mantissa = mantissa * 10 + static_cast<uint64_t>(*p++ - '0');
    }
    return p - begin;
  };
  const ptrdiff_t whole = digits();
  ptrdiff_t fraction = 0;
  if (p != end && *p == '.') {
    ++p;
    fraction = digits();
    if (fraction == 0) return false;
  }
  if (whole == 0 || whole + fraction > kMaxFastDigits) return false;
  const double value = static_cast<double>(mantissa) /
                       kExactPow10[static_cast<size_t>(fraction)];
  *out = negative ? -value : value;
  return true;
}

/// Parses the strict row form "d{1,9},d{1,9},decimal,decimal" and nothing
/// else; every other line (whitespace, '+', exponents, inf/nan, ".5",
/// "5.", long mantissas, negative or long ids and hours, wrong field
/// counts) is left to ParseReadingRow's general path.
bool ParseExactReadingRow(std::string_view line, ReadingRow* row) {
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto comma = [&p, end] { return p != end && *p++ == ','; };
  int32_t household_id = 0;
  if (!ParseFastInteger(p, end, &household_id) || !comma() ||
      !ParseFastInteger(p, end, &row->hour) || !comma() ||
      !ParseFastDecimal(p, end, &row->consumption) || !comma() ||
      !ParseFastDecimal(p, end, &row->temperature)) {
    return false;
  }
  row->household_id = household_id;
  return p == end;
}

// ---------------------------------------------------------------------------
// Dense assembly
// ---------------------------------------------------------------------------

constexpr int64_t kNoHour = std::numeric_limits<int64_t>::max();
/// A series' dense range may reach twice its readings plus this many
/// hours, which bounds its memory by its input.
constexpr size_t kDenseSlackHours = 16;

/// Readings of one series keyed by hour: a household's consumption, or the
/// temperature every row repeats. Hours below value_.size() are stored
/// densely; the first reading of an hour wins and `first_repeat_` keeps the
/// smallest hour read twice. Every layout we write reaches each series in
/// hour order, so the dense range grows one push_back at a time and,
/// while no hour below its end is missing, needs no per-hour `seen_` flags.
/// Any other hour -- negative, or further out than twice the readings seen
/// so far, so that growing to it could exhaust memory -- waits in `spill_`,
/// in arrival order, until the dense range covers it.
class HourSeries {
 public:
  void Add(int32_t hour, double v) {
    ++readings_;
    const auto h = static_cast<size_t>(hour);  // Negative hours wrap high.
    if (seen_.empty()) {
      if (h < value_.size()) {
        first_repeat_ = std::min(first_repeat_, static_cast<int64_t>(h));
        return;
      }
      if (h == value_.size() && spill_.empty()) {
        value_.push_back(v);
        return;
      }
    }
    if (hour < 0 || h >= 2 * readings_ + kDenseSlackHours) {
      spill_.emplace_back(hour, v);
      return;
    }
    if (seen_.empty()) seen_.assign(value_.size(), 1);
    if (h >= value_.size()) Grow(h + 1);
    Place(h, v);
  }

  /// The distinct hours must be exactly 0..N-1; returns one value per hour
  /// (the first read), or the first hour an ordered walk over the distinct
  /// hours finds out of place: the smallest negative one, else the first
  /// present after a gap.
  Result<std::vector<double>> TakeDistinct() {
    SortSpill();
    if (!spill_.empty() && spill_.front().first < 0) {
      return NotDense(spill_.front().first);
    }
    const size_t gap = FirstGap();
    if (gap < value_.size()) {
      const int64_t next = NextHourAfter(gap);
      if (next != kNoHour) return NotDense(next);
      value_.resize(gap);
    }
    for (const auto& [hour, v] : spill_) {
      const auto h = static_cast<size_t>(hour);
      if (h < value_.size()) continue;  // A later reading of a taken hour.
      if (h != value_.size()) return NotDense(hour);
      value_.push_back(v);
    }
    return std::move(value_);
  }

  /// Each hour 0..N-1 must be read exactly once (all hours are known to
  /// be >= 0); returns the values, or household `id`'s complaint about the
  /// first hour that is missing or repeated.
  Result<std::vector<double>> TakeSequence(int64_t id) {
    SortSpill();
    const size_t gap = FirstGap();
    if (first_repeat_ < static_cast<int64_t>(gap)) {
      return OutOfSequence(id, first_repeat_, first_repeat_ + 1);
    }
    if (gap < value_.size()) {
      const int64_t next = NextHourAfter(gap);
      if (next != kNoHour) {
        return OutOfSequence(id, next, static_cast<int64_t>(gap));
      }
      value_.resize(gap);
    }
    for (const auto& [hour, v] : spill_) {
      if (static_cast<size_t>(hour) != value_.size()) {
        return OutOfSequence(id, hour, static_cast<int64_t>(value_.size()));
      }
      value_.push_back(v);
    }
    return std::move(value_);
  }

 private:
  void Place(size_t hour, double v) {
    if (seen_[hour] != 0) {
      first_repeat_ = std::min(first_repeat_, static_cast<int64_t>(hour));
      return;
    }
    seen_[hour] = 1;
    value_[hour] = v;
  }

  void Grow(size_t size) {
    value_.resize(size);
    seen_.resize(size);
    // Spilled readings the dense range now covers arrived earlier than
    // anything still to come, so they are placed first.
    size_t kept = 0;
    for (const auto& [hour, v] : spill_) {
      if (hour >= 0 && static_cast<size_t>(hour) < size) {
        Place(static_cast<size_t>(hour), v);
      } else {
        spill_[kept++] = {hour, v};
      }
    }
    spill_.resize(kept);
  }

  void SortSpill() {
    std::stable_sort(
        spill_.begin(), spill_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  size_t FirstGap() const {
    if (seen_.empty()) return value_.size();
    return static_cast<size_t>(std::find(seen_.begin(), seen_.end(), 0) -
                               seen_.begin());
  }

  /// Smallest hour read above `gap` (spilled hours all lie beyond the
  /// dense range), or kNoHour.
  int64_t NextHourAfter(size_t gap) const {
    const auto it = std::find(seen_.begin() + static_cast<ptrdiff_t>(gap),
                              seen_.end(), 1);
    if (it != seen_.end()) return it - seen_.begin();
    return spill_.empty() ? kNoHour : spill_.front().first;
  }

  static Status NotDense(int64_t hour) {
    return Status::Corruption(StringPrintf("temperature hours not dense at %d",
                                           static_cast<int>(hour)));
  }
  static Status OutOfSequence(int64_t id, int64_t hour, int64_t expected) {
    return Status::Corruption(StringPrintf(
        "household %lld: hour %d out of sequence (expected %d)",
        static_cast<long long>(id), static_cast<int>(hour),
        static_cast<int>(expected)));
  }

  std::vector<double> value_;
  std::vector<uint8_t> seen_;
  std::vector<std::pair<int32_t, double>> spill_;
  int64_t first_repeat_ = kNoHour;
  size_t readings_ = 0;
};

/// Groups reading-per-line rows, arriving in any order, into one dense
/// household x hour dataset: each household owns a column of hourly
/// values, and the temperature takes each hour's first reading in
/// arrival order.
class DenseAssembler {
 public:
  void Add(const ReadingRow& row) {
    HouseholdOf(row.household_id).Add(row.hour, row.consumption);
    temperature_.Add(row.hour, row.temperature);
  }

  /// Complains as grouping the rows in ordered maps did, in the same
  /// order: no readings; temperature hours not dense; each household's
  /// first out-of-sequence hour, in id order; the dataset's shape.
  Result<MeterDataset> Finish() && {
    if (households_.empty()) {
      return Status::InvalidArgument("CSV contained no readings");
    }
    SM_ASSIGN_OR_RETURN(std::vector<double> temperature,
                        temperature_.TakeDistinct());
    std::vector<size_t> order(households_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return ids_[a] < ids_[b];
    });
    MeterDataset dataset;
    dataset.SetTemperature(std::move(temperature));
    dataset.mutable_consumers()->reserve(order.size());
    for (const size_t i : order) {
      ConsumerSeries series;
      series.household_id = ids_[i];
      SM_ASSIGN_OR_RETURN(series.consumption,
                          households_[i].TakeSequence(ids_[i]));
      dataset.AddConsumer(std::move(series));
    }
    SM_RETURN_IF_ERROR(dataset.Validate());
    return dataset;
  }

 private:
  HourSeries& HouseholdOf(int64_t id) {
    // Timestamp-major files cycle through the households in one order and
    // household-major files repeat one id, so try the household after the
    // last one, then the last one, before hashing.
    if (last_ + 1 < ids_.size() && ids_[last_ + 1] == id) {
      return households_[++last_];
    }
    if (last_ < ids_.size() && ids_[last_] == id) return households_[last_];
    const auto [it, inserted] = index_.try_emplace(id, ids_.size());
    if (inserted) {
      ids_.push_back(id);
      households_.emplace_back();
    }
    last_ = it->second;
    return households_[last_];
  }

  std::vector<int64_t> ids_;
  std::vector<HourSeries> households_;
  std::unordered_map<int64_t, size_t> index_;
  size_t last_ = 0;
  HourSeries temperature_;
};

}  // namespace

Result<ReadingRow> ParseReadingRow(std::string_view line) {
  ReadingRow row;
  if (ParseExactReadingRow(line, &row)) return row;
  // General path, one pass over the line: slice the four comma-separated
  // fields in place (no per-row split vector) and parse each with
  // from_chars. Errors carry the 1-based column of the offending field.
  std::string_view fields[4];
  size_t num_fields = 0;
  size_t start = 0;
  for (;;) {
    const size_t comma = simd::FindByte(line, start, ',');
    const size_t end = comma == std::string_view::npos ? line.size() : comma;
    if (num_fields == 4) {
      return Status::Corruption(StringPrintf(
          "expected 4 fields, extra field starts at column %zu", start + 1));
    }
    fields[num_fields++] = line.substr(start, end - start);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (num_fields != 4) {
    return Status::Corruption(
        StringPrintf("expected 4 fields, got %zu", num_fields));
  }
  const auto field_error = [&line, &fields](size_t f, const char* what) {
    return Status::Corruption(StringPrintf(
        "bad %s '%.*s' at column %zu", what,
        static_cast<int>(fields[f].size()), fields[f].data(),
        static_cast<size_t>(fields[f].data() - line.data()) + 1));
  };
  const auto id = ParseInt64(fields[0]);
  if (!id.ok()) return field_error(0, "household id");
  row.household_id = *id;
  const auto hour = ParseInt64(fields[1]);
  if (!hour.ok()) return field_error(1, "hour");
  row.hour = static_cast<int32_t>(*hour);
  const auto consumption = ParseDouble(fields[2]);
  if (!consumption.ok()) return field_error(2, "consumption");
  row.consumption = *consumption;
  const auto temperature = ParseDouble(fields[3]);
  if (!temperature.ok()) return field_error(3, "temperature");
  row.temperature = *temperature;
  return row;
}

Status WriteReadingsCsv(const MeterDataset& dataset,
                        const std::string& path) {
  CsvWriter out(path);
  if (!out.ok()) return out.OpenError();
  // Timestamp-major order: hour 0 of every household, then hour 1, ...
  // This is what a metering head-end actually exports, and it is what
  // makes the single big file painful for consumer-at-a-time platforms
  // (Figure 5) and leaves a bulk-loaded row table un-clustered by
  // household (Section 5.3).
  const std::vector<double>& temperature = dataset.temperature();
  for (size_t h = 0; h < dataset.hours(); ++h) {
    for (const ConsumerSeries& c : dataset.consumers()) {
      if (!PutReadingRow(out, c.household_id, h, c.consumption[h],
                         temperature[h])) {
        return ShortWrite();
      }
    }
  }
  return out.Flush() ? Status::OK() : ShortWrite();
}

Result<std::vector<std::string>> WritePartitionedCsv(
    const MeterDataset& dataset, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create dir " + dir);
  std::vector<std::string> paths;
  paths.reserve(dataset.num_consumers());
  for (const ConsumerSeries& c : dataset.consumers()) {
    std::string path = dir + "/" +
                       std::to_string(c.household_id) + ".csv";
    CsvWriter out(path);
    if (!out.ok()) return out.OpenError();
    SM_RETURN_IF_ERROR(WriteConsumerReadings(out, c, dataset.temperature()));
    if (!out.Flush()) return ShortWrite();
    paths.push_back(std::move(path));
  }
  return paths;
}

Result<std::vector<std::string>> WriteWholeHouseholdFiles(
    const MeterDataset& dataset, const std::string& dir, int num_files) {
  if (num_files < 1) {
    return Status::InvalidArgument("num_files must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create dir " + dir);

  const int files =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(num_files),
                                        dataset.num_consumers()));
  // Write one file at a time (a Figure 18 sweep can ask for thousands of
  // files, far beyond the open-descriptor limit). Household i goes to
  // file i % files, so gather each file's households first.
  std::vector<std::string> paths;
  paths.reserve(static_cast<size_t>(files));
  for (int file_idx = 0; file_idx < files; ++file_idx) {
    std::string path = dir + "/part-" + std::to_string(file_idx) + ".csv";
    CsvWriter out(path);
    if (!out.ok()) return out.OpenError();
    for (size_t i = static_cast<size_t>(file_idx);
         i < dataset.num_consumers(); i += static_cast<size_t>(files)) {
      SM_RETURN_IF_ERROR(WriteConsumerReadings(out, dataset.consumer(i),
                                               dataset.temperature()));
    }
    if (!out.Flush()) return ShortWrite();
    paths.push_back(std::move(path));
  }
  return paths;
}

Status WriteHouseholdLinesCsv(const MeterDataset& dataset,
                              const std::string& path) {
  {
    CsvWriter out(path);
    if (!out.ok()) return out.OpenError();
    for (const ConsumerSeries& c : dataset.consumers()) {
      if (!out.Reserve(1)) return ShortWrite();
      out.Integer(c.household_id);
      for (double v : c.consumption) {
        if (!out.Reserve(1)) return ShortWrite();
        out.Char(',');
        out.Fixed(v, 4);
      }
      out.Char('\n');
    }
    if (!out.Flush()) return ShortWrite();
  }
  CsvWriter temp_out(path + ".temperature");
  if (!temp_out.ok()) return temp_out.OpenError();
  for (double t : dataset.temperature()) {
    if (!temp_out.Reserve(1)) return ShortWrite();
    temp_out.Fixed(t, 2);
    temp_out.Char('\n');
  }
  return temp_out.Flush() ? Status::OK() : ShortWrite();
}

ReadingCsvReader::ReadingCsvReader(std::string path)
    : path_(std::move(path)) {}

ReadingCsvReader::~ReadingCsvReader() {
  PublishRows();
  if (file_ != nullptr) std::fclose(file_);
}

Status ReadingCsvReader::Open() {
  file_ = std::fopen(path_.c_str(), "r");
  if (file_ == nullptr) {
    return Status::IOError("cannot open for reading: " + path_);
  }
  buffer_.clear();
  buffer_pos_ = 0;
  eof_ = false;
  return Status::OK();
}

void ReadingCsvReader::PublishRows() {
  static obs::Counter* rows_scanned =
      obs::MetricsRegistry::Global().GetCounter("csv.rows_scanned");
  if (unpublished_rows_ != 0) rows_scanned->Add(unpublished_rows_);
  unpublished_rows_ = 0;
}

bool ReadingCsvReader::Next(ReadingRow* row) {
  if (file_ == nullptr || !status_.ok()) return false;
  for (;;) {
    // Slice the next line out of the block buffer; refill in 64 KiB
    // reads when no newline is buffered. Unlike the old fixed 256-byte
    // fgets, a line longer than one block just keeps accumulating.
    size_t newline = simd::FindByte(buffer_, buffer_pos_, '\n');
    while (newline == std::string_view::npos && !eof_) {
      buffer_.erase(0, buffer_pos_);
      buffer_pos_ = 0;
      const size_t scan_from = buffer_.size();
      buffer_.resize(scan_from + kCsvReadBlock);
      const size_t got =
          std::fread(buffer_.data() + scan_from, 1, kCsvReadBlock, file_);
      buffer_.resize(scan_from + got);
      if (got == 0) {
        eof_ = true;
        break;
      }
      // The pre-refill region held no newline past buffer_pos_, so the
      // rescan only covers the fresh bytes.
      newline = simd::FindByte(buffer_, scan_from, '\n');
    }
    std::string_view line;
    if (newline != std::string_view::npos) {
      line = std::string_view(buffer_).substr(buffer_pos_,
                                              newline - buffer_pos_);
      buffer_pos_ = newline + 1;
    } else {
      // EOF with an unterminated final line (or nothing left at all).
      if (buffer_pos_ >= buffer_.size()) {
        PublishRows();
        return false;
      }
      line = std::string_view(buffer_).substr(buffer_pos_);
      buffer_pos_ = buffer_.size();
    }
    ++line_number_;
    // A line in the strict row form has no whitespace to trim, so it skips
    // straight to the fast path ParseReadingRow would try first.
    ReadingRow exact;
    if (ParseExactReadingRow(line, &exact)) {
      *row = exact;
      ++unpublished_rows_;
      return true;
    }
    const std::string_view view = TrimWhitespace(line);
    if (view.empty()) continue;
    Result<ReadingRow> parsed = ParseReadingRow(view);
    if (!parsed.ok()) {
      status_ = Status(parsed.status().code(),
                       StringPrintf("%s:%zu: %s", path_.c_str(), line_number_,
                                    std::string(parsed.status().message())
                                        .c_str()));
      PublishRows();
      return false;
    }
    *row = *parsed;
    ++unpublished_rows_;
    return true;
  }
}

Result<MeterDataset> ReadReadingsCsv(const std::string& path) {
  return ReadReadingsCsvFiles({path});
}

Result<MeterDataset> ReadReadingsCsvFiles(
    const std::vector<std::string>& paths) {
  DenseAssembler assembler;
  for (const std::string& path : paths) {
    ReadingCsvReader reader(path);
    SM_RETURN_IF_ERROR(reader.Open());
    ReadingRow row;
    while (reader.Next(&row)) assembler.Add(row);
    SM_RETURN_IF_ERROR(reader.status());
  }
  return std::move(assembler).Finish();
}

Result<MeterDataset> AssembleReadingRows(std::span<const ReadingRow> rows) {
  DenseAssembler assembler;
  for (const ReadingRow& row : rows) assembler.Add(row);
  return std::move(assembler).Finish();
}

Result<MeterDataset> ReadPartitionedCsv(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return Status::IOError("cannot list dir " + dir);
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".csv") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return ReadReadingsCsvFiles(paths);
}

Result<MeterDataset> ReadHouseholdLinesCsv(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  MeterDataset dataset;
  char chunk[1 << 16];
  std::string pending;
  // Single pass per line: fields are sliced in place instead of
  // materializing a per-line split vector (a whole-year line holds 8760
  // values — splitting it allocated a ~9k-entry vector per household).
  auto process_line = [&dataset](std::string_view view) -> Status {
    view = TrimWhitespace(view);
    if (view.empty()) return Status::OK();
    const size_t id_end = simd::FindByte(view, 0, ',');
    if (id_end == std::string_view::npos) {
      return Status::Corruption("household line with no readings");
    }
    ConsumerSeries series;
    SM_ASSIGN_OR_RETURN(series.household_id,
                        ParseInt64(view.substr(0, id_end)));
    // Exact field count (= comma count) in one vector pass before the
    // reserve, so a whole-year line never reallocates mid-parse.
    series.consumption.reserve(simd::CountByte(view, ','));
    size_t pos = id_end + 1;
    for (;;) {
      const size_t comma = simd::FindByte(view, pos, ',');
      const std::string_view field =
          comma == std::string_view::npos ? view.substr(pos)
                                          : view.substr(pos, comma - pos);
      SM_ASSIGN_OR_RETURN(double v, ParseDouble(field));
      series.consumption.push_back(v);
      if (comma == std::string_view::npos) break;
      pos = comma + 1;
    }
    dataset.AddConsumer(std::move(series));
    return Status::OK();
  };
  while (std::fgets(chunk, sizeof(chunk), f) != nullptr) {
    pending += chunk;
    if (!pending.empty() && pending.back() == '\n') {
      const Status st = process_line(pending);
      if (!st.ok()) {
        std::fclose(f);
        return st;
      }
      pending.clear();
    }
  }
  std::fclose(f);
  if (!pending.empty()) {
    SM_RETURN_IF_ERROR(process_line(pending));
  }

  // Temperature sidecar.
  FILE* tf = std::fopen((path + ".temperature").c_str(), "r");
  if (tf == nullptr) {
    return Status::IOError("missing temperature sidecar for " + path);
  }
  std::vector<double> temp;
  char tline[64];
  while (std::fgets(tline, sizeof(tline), tf) != nullptr) {
    std::string_view view = TrimWhitespace(tline);
    if (view.empty()) continue;
    Result<double> v = ParseDouble(view);
    if (!v.ok()) {
      std::fclose(tf);
      return v.status();
    }
    temp.push_back(*v);
  }
  std::fclose(tf);
  dataset.SetTemperature(std::move(temp));
  SM_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace smartmeter::storage
