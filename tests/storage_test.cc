#include <algorithm>
#include <cfloat>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "storage/column_store.h"
#include "storage/csv.h"
#include "storage/row_store.h"
#include "timeseries/dataset.h"

namespace smartmeter::storage {
namespace {

namespace fs = std::filesystem;

/// Builds a small deterministic dataset: `n` households over `hours`.
MeterDataset MakeDataset(int n, int hours, uint64_t seed = 1) {
  Rng rng(seed);
  MeterDataset ds;
  std::vector<double> temp(static_cast<size_t>(hours));
  for (double& t : temp) t = rng.Uniform(-15, 30);
  ds.SetTemperature(std::move(temp));
  for (int i = 0; i < n; ++i) {
    ConsumerSeries c;
    c.household_id = 100 + i;
    c.consumption.reserve(static_cast<size_t>(hours));
    for (int h = 0; h < hours; ++h) {
      c.consumption.push_back(rng.Uniform(0.0, 5.0));
    }
    ds.AddConsumer(std::move(c));
  }
  return ds;
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("storage_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

void ExpectDatasetsNear(const MeterDataset& a, const MeterDataset& b,
                        double tolerance) {
  ASSERT_EQ(a.num_consumers(), b.num_consumers());
  ASSERT_EQ(a.hours(), b.hours());
  for (size_t h = 0; h < a.hours(); ++h) {
    // Temperature is serialized with 2 decimals.
    ASSERT_NEAR(a.temperature()[h], b.temperature()[h], 0.006) << h;
  }
  for (size_t i = 0; i < a.num_consumers(); ++i) {
    ASSERT_EQ(a.consumer(i).household_id, b.consumer(i).household_id);
    for (size_t h = 0; h < a.hours(); ++h) {
      ASSERT_NEAR(a.consumer(i).consumption[h], b.consumer(i).consumption[h],
                  tolerance)
          << "household " << i << " hour " << h;
    }
  }
}

// ---------------------------------------------------------------------------
// CSV round trips
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ReadingsCsvRoundTrip) {
  const MeterDataset ds = MakeDataset(5, 48);
  ASSERT_TRUE(WriteReadingsCsv(ds, Path("data.csv")).ok());
  auto loaded = ReadReadingsCsv(Path("data.csv"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsNear(ds, *loaded, 1e-3);  // CSV keeps 4 decimals.
}

TEST_F(StorageTest, PartitionedCsvRoundTrip) {
  const MeterDataset ds = MakeDataset(4, 24);
  auto paths = WritePartitionedCsv(ds, Path("parts"));
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 4u);
  auto loaded = ReadPartitionedCsv(Path("parts"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsNear(ds, *loaded, 1e-3);
}

TEST_F(StorageTest, HouseholdLinesRoundTrip) {
  const MeterDataset ds = MakeDataset(3, 30);
  ASSERT_TRUE(WriteHouseholdLinesCsv(ds, Path("wide.csv")).ok());
  auto loaded = ReadHouseholdLinesCsv(Path("wide.csv"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsNear(ds, *loaded, 1e-3);
}

TEST_F(StorageTest, WholeHouseholdFilesKeepHouseholdsIntact) {
  const MeterDataset ds = MakeDataset(7, 24);
  auto paths = WriteWholeHouseholdFiles(ds, Path("many"), 3);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 3u);
  // Each household's rows live in exactly one file.
  std::map<int64_t, std::set<std::string>> file_of;
  for (const std::string& path : *paths) {
    ReadingCsvReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    ReadingRow row;
    while (reader.Next(&row)) {
      file_of[row.household_id].insert(path);
    }
    ASSERT_TRUE(reader.status().ok());
  }
  EXPECT_EQ(file_of.size(), 7u);
  for (const auto& [id, files] : file_of) {
    EXPECT_EQ(files.size(), 1u) << "household " << id << " split";
  }
}

TEST_F(StorageTest, WholeHouseholdFilesClampedToHouseholdCount) {
  const MeterDataset ds = MakeDataset(2, 24);
  auto paths = WriteWholeHouseholdFiles(ds, Path("many2"), 10);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 2u);
}

TEST_F(StorageTest, ParseReadingRowValidatesShape) {
  EXPECT_TRUE(ParseReadingRow("1,0,2.5,-3.0").ok());
  EXPECT_FALSE(ParseReadingRow("1,0,2.5").ok());
  EXPECT_FALSE(ParseReadingRow("a,0,2.5,-3.0").ok());
  EXPECT_FALSE(ParseReadingRow("").ok());
}

TEST_F(StorageTest, ReaderSurfacesMalformedRows) {
  {
    FILE* f = fopen(Path("bad.csv").c_str(), "w");
    fputs("1,0,0.5,1.0\nnot,a,row\n", f);
    fclose(f);
  }
  ReadingCsvReader reader(Path("bad.csv"));
  ASSERT_TRUE(reader.Open().ok());
  ReadingRow row;
  EXPECT_TRUE(reader.Next(&row));
  EXPECT_FALSE(reader.Next(&row));
  EXPECT_FALSE(reader.status().ok());
}

TEST_F(StorageTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadReadingsCsv(Path("absent.csv")).status().code(),
            StatusCode::kIOError);
  ReadingCsvReader reader(Path("absent.csv"));
  EXPECT_EQ(reader.Open().code(), StatusCode::kIOError);
}

TEST_F(StorageTest, ReadRejectsRaggedHouseholds) {
  {
    FILE* f = fopen(Path("ragged.csv").c_str(), "w");
    fputs("1,0,0.5,1.0\n1,1,0.6,1.0\n2,0,0.2,1.0\n", f);
    fclose(f);
  }
  EXPECT_FALSE(ReadReadingsCsv(Path("ragged.csv")).ok());
}

// ---------------------------------------------------------------------------
// Load oracle: the map-based reading-per-line load, kept verbatim as the
// reference the dense load must match bit for bit (datasets) and byte for
// byte (error statuses).
// ---------------------------------------------------------------------------

namespace oracle {

Result<ReadingRow> ParseReadingRow(std::string_view line) {
  // Single pass over the line: slice the four comma-separated fields in
  // place (no per-row split vector) and parse each with the from_chars
  // fast path. Errors carry the 1-based column of the offending field.
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
  ReadingRow row;
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

Result<MeterDataset> AssembleFromRows(
    std::map<int64_t, std::vector<std::pair<int32_t, double>>>&& consumption,
    std::map<int32_t, double>&& temperature) {
  if (consumption.empty()) {
    return Status::InvalidArgument("CSV contained no readings");
  }
  // Temperature vector indexed by hour; hours must be dense from 0.
  std::vector<double> temp;
  temp.reserve(temperature.size());
  int32_t expected = 0;
  for (const auto& [hour, value] : temperature) {
    if (hour != expected) {
      return Status::Corruption(
          StringPrintf("temperature hours not dense at %d", hour));
    }
    temp.push_back(value);
    ++expected;
  }
  MeterDataset dataset;
  dataset.SetTemperature(std::move(temp));
  for (auto& [id, rows] : consumption) {
    std::sort(rows.begin(), rows.end());
    ConsumerSeries series;
    series.household_id = id;
    series.consumption.reserve(rows.size());
    int32_t expect_hour = 0;
    for (const auto& [hour, value] : rows) {
      if (hour != expect_hour) {
        return Status::Corruption(StringPrintf(
            "household %lld: hour %d out of sequence (expected %d)",
            static_cast<long long>(id), hour, expect_hour));
      }
      series.consumption.push_back(value);
      ++expect_hour;
    }
    dataset.AddConsumer(std::move(series));
  }
  SM_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

Result<MeterDataset> AssembleReadingRows(std::span<const ReadingRow> rows) {
  std::map<int64_t, std::vector<std::pair<int32_t, double>>> consumption;
  std::map<int32_t, double> temperature;
  for (const ReadingRow& row : rows) {
    consumption[row.household_id].emplace_back(row.hour, row.consumption);
    temperature.emplace(row.hour, row.temperature);
  }
  return AssembleFromRows(std::move(consumption), std::move(temperature));
}

/// The line loop of the streaming reader the oracle load ran on: lines
/// split at '\n' (an unterminated last line included), trimmed, blank ones
/// skipped, each parsed by the oracle parser. Counts the rows it returns.
class Reader {
 public:
  explicit Reader(std::string path) : path_(std::move(path)) {}

  Status Open() {
    std::ifstream in(path_, std::ios::binary);
    if (!in) return Status::IOError("cannot open for reading: " + path_);
    std::ostringstream text;
    text << in.rdbuf();
    text_ = text.str();
    return Status::OK();
  }

  bool Next(ReadingRow* row) {
    if (!status_.ok()) return false;
    while (pos_ < text_.size()) {
      const size_t newline = text_.find('\n', pos_);
      const size_t end = newline == std::string::npos ? text_.size() : newline;
      const std::string_view line =
          std::string_view(text_).substr(pos_, end - pos_);
      pos_ = newline == std::string::npos ? text_.size() : newline + 1;
      ++line_number_;
      const std::string_view view = TrimWhitespace(line);
      if (view.empty()) continue;
      Result<ReadingRow> parsed = oracle::ParseReadingRow(view);
      if (!parsed.ok()) {
        status_ = Status(parsed.status().code(),
                         StringPrintf("%s:%zu: %s", path_.c_str(),
                                      line_number_,
                                      std::string(parsed.status().message())
                                          .c_str()));
        return false;
      }
      *row = *parsed;
      ++rows_;
      return true;
    }
    return false;
  }

  const Status& status() const { return status_; }
  int64_t rows() const { return rows_; }

 private:
  std::string path_;
  std::string text_;
  size_t pos_ = 0;
  size_t line_number_ = 0;
  int64_t rows_ = 0;
  Status status_;
};

Result<MeterDataset> ReadReadingsCsvFiles(
    const std::vector<std::string>& paths, int64_t* rows_scanned) {
  std::map<int64_t, std::vector<std::pair<int32_t, double>>> consumption;
  std::map<int32_t, double> temperature;
  for (const std::string& path : paths) {
    Reader reader(path);
    SM_RETURN_IF_ERROR(reader.Open());
    ReadingRow row;
    while (reader.Next(&row)) {
      consumption[row.household_id].emplace_back(row.hour, row.consumption);
      temperature.emplace(row.hour, row.temperature);
    }
    *rows_scanned += reader.rows();
    SM_RETURN_IF_ERROR(reader.status());
  }
  return AssembleFromRows(std::move(consumption), std::move(temperature));
}

}  // namespace oracle

/// Same shape, ids and value bits (NaN payloads and -0.0 included).
::testing::AssertionResult BitwiseEqual(const MeterDataset& a,
                                        const MeterDataset& b) {
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  if (!same_bits(a.temperature(), b.temperature())) {
    return ::testing::AssertionFailure() << "temperature differs";
  }
  if (a.num_consumers() != b.num_consumers()) {
    return ::testing::AssertionFailure()
           << a.num_consumers() << " vs " << b.num_consumers()
           << " households";
  }
  for (size_t i = 0; i < a.num_consumers(); ++i) {
    if (a.consumer(i).household_id != b.consumer(i).household_id ||
        !same_bits(a.consumer(i).consumption, b.consumer(i).consumption)) {
      return ::testing::AssertionFailure()
             << "household #" << i << " (id " << a.consumer(i).household_id
             << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Both loads gave the same dataset bits, or the same status code and
/// message.
::testing::AssertionResult SameLoad(const Result<MeterDataset>& got,
                                    const Result<MeterDataset>& want) {
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << "got " << (got.ok() ? "OK" : got.status().ToString())
           << ", want " << (want.ok() ? "OK" : want.status().ToString());
  }
  if (!got.ok()) {
    if (got.status().code() == want.status().code() &&
        got.status().message() == want.status().message()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "got " << got.status().ToString() << ", want "
           << want.status().ToString();
  }
  return BitwiseEqual(*got, *want);
}

/// Seeded generator of reading-per-line CSV inputs: the layouts the
/// writers produce plus duplicates, gaps, bad hours, ragged households,
/// conflicting temperatures and every number spelling the general parser
/// accepts or rejects.
class CsvCaseGenerator {
 public:
  explicit CsvCaseGenerator(uint64_t seed) : rng_(seed) {}

  /// Whether the last case spelled some decimals with 14-17 digits.
  bool long_values() const { return long_rate_ > 0; }

  /// Returns the contents of 1..3 files.
  std::vector<std::string> Generate() {
    if (Chance(0.02)) return {Chance(0.5) ? "" : "\n  \n\t\n"};
    const int households = 1 + Int(5);
    // Long series make shuffled rows outrun the dense range.
    const int hours = 1 + Int(Chance(0.2) ? 200 : 24);
    // Rare spellings and damage are per-case rates, so many cases are
    // clean (and load) while others are hostile.
    odd_rate_ = Chance(0.5) ? 0.0 : 0.02 + 0.1 * rng_.NextDouble();
    long_rate_ = Chance(0.3) ? 0.3 : 0.0;
    const double conflict_rate = Chance(0.5) ? 0.3 : 0.0;

    std::vector<std::string> ids;
    std::set<int64_t> used;
    while (static_cast<int>(ids.size()) < households) {
      int64_t id = 1 + static_cast<int64_t>(Int(Chance(0.2) ? 40 : 1000));
      if (Chance(0.05)) id = -id;
      if (Chance(0.05)) id += 1234567890123LL;
      if (!used.insert(id).second) continue;
      ids.push_back(std::to_string(id));
    }
    std::vector<std::string> temps;
    for (int h = 0; h < hours; ++h) temps.push_back(Decimal(2));

    struct Row {
      int household;
      int hour;
      std::string line;
    };
    std::vector<Row> rows;
    for (int i = 0; i < households; ++i) {
      // Ragged households stop early.
      const int last = Chance(0.05) ? Int(hours) : hours;
      for (int h = 0; h < last; ++h) {
        const std::string& temp =
            Chance(conflict_rate) ? Decimal(2) : temps[static_cast<size_t>(h)];
        rows.push_back({i, h, Line(ids[static_cast<size_t>(i)], Hour(h),
                                   Decimal(4), temp)});
      }
    }
    // Duplicates (same and different values), gaps, stray hours.
    const int damage = odd_rate_ > 0 && Chance(0.5) ? 1 + Int(3) : 0;
    for (int d = 0; d < damage && !rows.empty(); ++d) {
      const size_t pick = Int(static_cast<int>(rows.size()));
      const Row& r = rows[pick];
      const std::string& id = ids[static_cast<size_t>(r.household)];
      switch (Int(6)) {
        case 0:
          rows.push_back(r);
          break;
        case 1:
          rows.push_back(
              {r.household, r.hour, Line(id, Hour(r.hour), Decimal(4),
                                         Decimal(2))});
          break;
        case 2:
          rows.erase(rows.begin() + static_cast<ptrdiff_t>(pick));
          break;
        case 3:
          rows.push_back({r.household, -1,
                          Line(id, std::to_string(-1 - Int(5)), Decimal(4),
                               Decimal(2))});
          break;
        case 4: {
          static const char* const kFar[] = {"2147483647", "2147483648",
                                             "4294967296", "99999999999",
                                             "1000"};
          rows.push_back({r.household, -1,
                          Line(id, kFar[Int(5)], Decimal(4), Decimal(2))});
          break;
        }
        default:
          rows.push_back({r.household, hours,
                          Line(id, std::to_string(hours + Int(3)),
                               Decimal(4), Decimal(2))});
          break;
      }
    }
    // Layout: timestamp-major (as written), household-major, shuffled.
    switch (Int(3)) {
      case 0:
        std::stable_sort(rows.begin(), rows.end(),
                         [](const Row& a, const Row& b) {
                           return a.hour < b.hour;
                         });
        break;
      case 1:
        std::stable_sort(rows.begin(), rows.end(),
                         [](const Row& a, const Row& b) {
                           return a.household < b.household;
                         });
        break;
      default:
        rng_.Shuffle(&rows);
        break;
    }
    // One file, or several: whole households per file or arbitrary cuts.
    const int num_files = Chance(0.6) ? 1 : 2 + Int(2);
    const bool by_household = Chance(0.5);
    std::vector<std::string> files(static_cast<size_t>(num_files));
    for (size_t i = 0; i < rows.size(); ++i) {
      const int f = by_household ? rows[i].household % num_files
                                 : static_cast<int>(i * num_files /
                                                    rows.size());
      std::string& text = files[static_cast<size_t>(f)];
      if (Odd()) text += Chance(0.5) ? "\n" : "  \t\n";
      text += rows[i].line;
      text += Odd() ? "\r\n" : "\n";
    }
    for (std::string& text : files) {
      if (!text.empty() && Chance(0.2)) text.pop_back();  // No final '\n'.
    }
    return files;
  }

 private:
  int Int(int n) {
    return static_cast<int>(rng_.UniformInt(static_cast<uint64_t>(n)));
  }
  bool Chance(double p) { return rng_.NextDouble() < p; }
  bool Odd() { return Chance(odd_rate_); }

  std::string Hour(int h) {
    if (!Odd()) return std::to_string(h);
    switch (Int(3)) {
      case 0:
        return "00" + std::to_string(h);
      case 1:
        return "000000000" + std::to_string(h);  // > 9 digits.
      default:
        return std::to_string(4294967296LL + h);  // Wraps to h.
    }
  }

  std::string Digits(int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += static_cast<char>('0' + Int(10));
    return out;
  }

  /// A decimal: usually `decimals` places as the writer prints them,
  /// sometimes a long mantissa, sometimes an odd spelling.
  std::string Decimal(int decimals) {
    if (Chance(long_rate_)) {
      // 14..17 significant digits; 16- and 17-digit ones beyond 2^53
      // round differently when converted then divided.
      const int digits = 14 + Int(4);
      std::string m;
      if (digits >= 16 && Chance(0.5)) {
        m = std::to_string((1ULL << 53) + rng_.UniformInt(900000000000000ULL));
        m += Digits(digits - 16);
      } else {
        m = std::to_string(1 + Int(9)) + Digits(digits - 1);
      }
      const size_t point = 1 + static_cast<size_t>(Int(digits - 1));
      return (Chance(0.3) ? "-" : "") + m.substr(0, point) + "." +
             m.substr(point);
    }
    if (Odd()) {
      static const char* const kOdd[] = {
          "-0.00", "0",    "-0",   "+1.5",  "1e3",   "1.5E-2", ".5",
          "5.",    "inf",  "-inf", "nan",   "-nan",  " 2.25",  "2.25 ",
          "0001.50", "00.0100", "",   "1,5",  "abc",   "0x1p3",  "1..2",
          "-",     "1e400", "12345678901234567890", "0.000000000000000001"};
      return kOdd[Int(static_cast<int>(std::size(kOdd)))];
    }
    const double scale = decimals == 4 ? 5.0 : 30.0;
    return StringPrintf("%.*f", decimals,
                        rng_.Uniform(decimals == 4 ? 0.0 : -scale, scale));
  }

  std::string Line(const std::string& id, const std::string& hour,
                   const std::string& consumption,
                   const std::string& temperature) {
    std::string line = id + "," + hour + "," + consumption + "," + temperature;
    if (Odd()) {
      switch (Int(4)) {
        case 0:
          return " " + line;
        case 1:
          return line + ",7";  // Extra field.
        case 2:
          return id + "," + hour + "," + consumption;  // Missing field.
        default:
          return id + " ," + hour + "," + consumption + "," + temperature;
      }
    }
    return line;
  }

  Rng rng_;
  double odd_rate_ = 0.0;
  double long_rate_ = 0.0;
};

/// Buckets a load's result by which check decided it.
std::string LoadOutcome(const Result<MeterDataset>& result) {
  if (result.ok()) return "loaded";
  const std::string& message = result.status().message();
  for (const auto& [needle, outcome] :
       std::vector<std::pair<std::string, std::string>>{
           {"no readings", "no readings"},
           {"not dense", "temperature"},
           {"out of sequence", "sequence"},
           {"readings, expected", "shape"},
           {".csv:", "parse"}}) {
    if (message.find(needle) != std::string::npos) return outcome;
  }
  return message;
}

int64_t RowsScanned() {
  return obs::MetricsRegistry::Global()
      .GetCounter("csv.rows_scanned")
      ->Value();
}

TEST_F(StorageTest, DenseLoadMatchesMapOracle) {
  constexpr int kCases = 2500;
  std::map<std::string, int> outcomes;
  int with_long_values = 0;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    CsvCaseGenerator generator(0x5eed0000u + static_cast<uint64_t>(c));
    const std::vector<std::string> texts = generator.Generate();
    std::vector<std::string> paths;
    for (size_t f = 0; f < texts.size(); ++f) {
      paths.push_back(Path("case-" + std::to_string(f) + ".csv"));
      std::ofstream(paths.back(), std::ios::binary) << texts[f];
    }

    // Row parser: every line, the general-path spellings included.
    std::vector<ReadingRow> rows;
    bool all_parse = true;
    for (const std::string& text : texts) {
      for (const std::string_view line : SplitString(text, '\n')) {
        const Result<ReadingRow> got = ParseReadingRow(line);
        const Result<ReadingRow> want = oracle::ParseReadingRow(line);
        ASSERT_EQ(got.ok(), want.ok()) << "line '" << line << "'";
        if (!got.ok()) {
          ASSERT_EQ(got.status(), want.status()) << "line '" << line << "'";
          if (!TrimWhitespace(line).empty()) all_parse = false;
          continue;
        }
        ASSERT_EQ(got->household_id, want->household_id) << line;
        ASSERT_EQ(got->hour, want->hour) << line;
        ASSERT_EQ(std::memcmp(&got->consumption, &want->consumption, 8), 0)
            << "line '" << line << "'";
        ASSERT_EQ(std::memcmp(&got->temperature, &want->temperature, 8), 0)
            << "line '" << line << "'";
        rows.push_back(*got);
      }
    }
    if (generator.long_values()) ++with_long_values;

    // Whole load, files in order.
    int64_t want_rows = 0;
    const Result<MeterDataset> want =
        oracle::ReadReadingsCsvFiles(paths, &want_rows);
    const int64_t rows0 = RowsScanned();
    const Result<MeterDataset> got = ReadReadingsCsvFiles(paths);
    ASSERT_TRUE(SameLoad(got, want));
    ASSERT_EQ(RowsScanned() - rows0, want_rows);
    ++outcomes[LoadOutcome(got)];

    // Row assembly on its own (the block-store reader's path).
    if (all_parse) {
      ASSERT_TRUE(SameLoad(AssembleReadingRows(rows),
                           oracle::AssembleReadingRows(rows)));
    }
    for (const std::string& path : paths) fs::remove(path);
  }
  // Every outcome must be exercised: loads compared bit for bit, and each
  // kind of complaint compared byte for byte.
  for (const char* outcome :
       {"loaded", "no readings", "parse", "temperature", "sequence",
        "shape"}) {
    EXPECT_GE(outcomes[outcome], 20) << outcome;
  }
  EXPECT_GE(outcomes["loaded"], kCases / 4);
  EXPECT_GT(with_long_values, kCases / 10);
}

TEST_F(StorageTest, ExactRowParserMatchesFromChars) {
  // Values in the strict form round-trip through the fast path exactly as
  // through from_chars, including ties at the 2^53 boundary and -0.
  Rng rng(17);
  std::vector<std::string> values = {
      "0.0",     "-0.0",    "-0.00", "0", "-0", "9007199254740991",
      "900719925474099.1", "0.000000000000001", "123456789012345",
      "1.00000000000000", "99999999999999.9", "0.1", "0.2", "0.3"};
  for (int i = 0; i < 200000; ++i) {
    const int digits = 1 + static_cast<int>(rng.UniformInt(17));
    std::string m = std::to_string(1 + rng.UniformInt(9));
    for (int d = 1; d < digits; ++d) {
      m += static_cast<char>('0' + rng.UniformInt(10));
    }
    const size_t point = rng.UniformInt(static_cast<uint64_t>(digits));
    std::string v = point == 0 ? m : m.substr(0, point) + "." + m.substr(point);
    if (rng.UniformInt(2) == 0) v = "-" + v;
    values.push_back(std::move(v));
  }
  for (const std::string& v : values) {
    const std::string line = "42,7," + v + "," + v;
    const Result<ReadingRow> got = ParseReadingRow(line);
    const Result<double> want = ParseDouble(v);
    ASSERT_TRUE(got.ok()) << line;
    ASSERT_TRUE(want.ok()) << v;
    ASSERT_EQ(std::memcmp(&got->consumption, &*want, 8), 0) << v;
    ASSERT_EQ(std::memcmp(&got->temperature, &*want, 8), 0) << v;
  }
}

// ---------------------------------------------------------------------------
// Writers: byte-identical to the printf conversions they replaced
// ---------------------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_F(StorageTest, WritersMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.03125,  -0.03125, 0.125,   0.375,
                                2.5,      0.5,      1.5,     0.0,
                                -0.0,     nan,      -nan,    kInf,
                                -kInf,    1e300,    -1e300,  DBL_MAX,
                                -DBL_MAX, DBL_MIN,  4.9e-324, 0.00005,
                                0.005,    0.015,    1e-5,    123456.78905};
  Rng rng(5);
  while (values.size() < 20000) {
    switch (rng.UniformInt(3)) {
      case 0:
        values.push_back(rng.Uniform(-40.0, 40.0));
        break;
      case 1:  // Exact binary ties at 2 and 4 decimals.
        values.push_back(static_cast<double>(rng.UniformInt(200001)) / 32.0 -
                         3125.0);
        break;
      default: {
        uint64_t bits = rng.NextUint64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        values.push_back(v);
        break;
      }
    }
  }
  // Two households over len/2 hours; temperature reuses the values.
  const size_t hours = values.size() / 2;
  MeterDataset ds;
  ds.SetTemperature(std::vector<double>(values.begin(),
                                        values.begin() +
                                            static_cast<ptrdiff_t>(hours)));
  ds.AddConsumer({7, std::vector<double>(values.begin(),
                                         values.begin() +
                                             static_cast<ptrdiff_t>(hours))});
  ds.AddConsumer({-3, std::vector<double>(
                          values.begin() + static_cast<ptrdiff_t>(hours),
                          values.begin() + static_cast<ptrdiff_t>(2 * hours))});

  const auto row = [&ds](size_t i, size_t h) {
    char buf[1024];
    std::snprintf(buf, sizeof buf, "%lld,%zu,%.4f,%.2f\n",
                  static_cast<long long>(ds.consumer(i).household_id), h,
                  ds.consumer(i).consumption[h], ds.temperature()[h]);
    return std::string(buf);
  };
  std::string readings;
  for (size_t h = 0; h < hours; ++h) {
    for (size_t i = 0; i < 2; ++i) readings += row(i, h);
  }
  ASSERT_TRUE(WriteReadingsCsv(ds, Path("r.csv")).ok());
  EXPECT_TRUE(ReadFile(Path("r.csv")) == readings);

  auto parts = WritePartitionedCsv(ds, Path("parts"));
  ASSERT_TRUE(parts.ok());
  for (size_t i = 0; i < 2; ++i) {
    std::string want;
    for (size_t h = 0; h < hours; ++h) want += row(i, h);
    EXPECT_TRUE(ReadFile((*parts)[i]) == want) << (*parts)[i];
  }
  auto whole = WriteWholeHouseholdFiles(ds, Path("whole"), 1);
  ASSERT_TRUE(whole.ok());
  std::string both;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t h = 0; h < hours; ++h) both += row(i, h);
  }
  EXPECT_TRUE(ReadFile(whole->front()) == both);

  std::string lines, temps;
  for (const ConsumerSeries& c : ds.consumers()) {
    char buf[1024];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(c.household_id));
    lines += buf;
    for (double v : c.consumption) {
      std::snprintf(buf, sizeof buf, ",%.4f", v);
      lines += buf;
    }
    lines += '\n';
  }
  for (double t : ds.temperature()) {
    char buf[1024];
    std::snprintf(buf, sizeof buf, "%.2f\n", t);
    temps += buf;
  }
  ASSERT_TRUE(WriteHouseholdLinesCsv(ds, Path("wide.csv")).ok());
  EXPECT_TRUE(ReadFile(Path("wide.csv")) == lines);
  EXPECT_TRUE(ReadFile(Path("wide.csv.temperature")) == temps);
}

TEST_F(StorageTest, WritersReportIOErrors) {
  const MeterDataset ds = MakeDataset(1, 4);
  EXPECT_EQ(WriteReadingsCsv(ds, Path("no-such-dir/r.csv")).code(),
            StatusCode::kIOError);
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Every write to /dev/full fails with ENOSPC.
  const Status full = WriteReadingsCsv(ds, "/dev/full");
  EXPECT_EQ(full.code(), StatusCode::kIOError);
  EXPECT_EQ(full.message(), "short write");
  EXPECT_EQ(WriteHouseholdLinesCsv(ds, "/dev/full").message(), "short write");
}

// ---------------------------------------------------------------------------
// RowStore
// ---------------------------------------------------------------------------

TEST_F(StorageTest, RowStoreExtractsOrderedSeries) {
  const MeterDataset ds = MakeDataset(3, 24);
  RowStore store;
  // Interleaved load: rows arrive hour-major like a utility feed.
  ASSERT_TRUE(store.LoadFromDataset(ds, /*interleave=*/true).ok());
  EXPECT_EQ(store.num_rows(), 3u * 24u);
  EXPECT_EQ(store.num_households(), 3u);
  for (const ConsumerSeries& c : ds.consumers()) {
    auto extracted = store.HouseholdConsumption(c.household_id);
    ASSERT_TRUE(extracted.ok());
    EXPECT_EQ(*extracted, c.consumption);
    auto temp = store.HouseholdTemperature(c.household_id);
    ASSERT_TRUE(temp.ok());
    EXPECT_EQ(*temp, ds.temperature());
  }
}

TEST_F(StorageTest, RowStoreUnknownHousehold) {
  RowStore store;
  ASSERT_TRUE(store.LoadFromDataset(MakeDataset(1, 4), false).ok());
  EXPECT_EQ(store.HouseholdConsumption(999).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StorageTest, RowStoreLoadFromCsvMatchesDataset) {
  const MeterDataset ds = MakeDataset(3, 24);
  ASSERT_TRUE(WriteReadingsCsv(ds, Path("rows.csv")).ok());
  RowStore store;
  ASSERT_TRUE(store.LoadFromCsv(Path("rows.csv")).ok());
  EXPECT_EQ(store.num_rows(), ds.consumers().size() * ds.hours());
  auto ids = store.HouseholdIds();
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST_F(StorageTest, ArrayStoreFindsHouseholds) {
  const MeterDataset ds = MakeDataset(4, 12);
  ArrayStore store;
  ASSERT_TRUE(store.LoadFromDataset(ds).ok());
  EXPECT_EQ(store.num_households(), 4u);
  auto row = store.Find(101);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->consumption, ds.consumer(1).consumption);
  EXPECT_EQ(row->temperature, ds.temperature());
  EXPECT_EQ(store.Find(12345).status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, ArrayStoreReadAllRoundTrips) {
  const MeterDataset ds = MakeDataset(6, 24);
  ArrayStore store;
  ASSERT_TRUE(store.LoadFromDataset(ds).ok());
  auto all = store.ReadAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->num_consumers(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(all->consumer(i).household_id, ds.consumer(i).household_id);
    EXPECT_EQ(all->consumer(i).consumption, ds.consumer(i).consumption);
  }
  EXPECT_EQ(all->temperature(), ds.temperature());
}

TEST_F(StorageTest, ArrayStoreReadRowOutOfRange) {
  const MeterDataset ds = MakeDataset(2, 12);
  ArrayStore store;
  ASSERT_TRUE(store.LoadFromDataset(ds).ok());
  EXPECT_EQ(store.ReadRow(5).status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// ColumnStore
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ColumnStoreMappedRoundTrip) {
  const MeterDataset ds = MakeDataset(5, 36);
  const std::string path = Path("table.smcol");
  ASSERT_TRUE(ColumnStore::WriteFile(ds, path).ok());
  ColumnStore store;
  ASSERT_TRUE(store.OpenMapped(path).ok());
  EXPECT_TRUE(store.is_mapped());
  ASSERT_EQ(store.num_households(), 5u);
  ASSERT_EQ(store.hours(), 36u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(store.household_id(i), ds.consumer(i).household_id);
    const auto seg = store.consumption(i);
    for (size_t h = 0; h < 36; ++h) {
      EXPECT_DOUBLE_EQ(seg[h], ds.consumer(i).consumption[h]);
    }
  }
  for (size_t h = 0; h < 36; ++h) {
    EXPECT_DOUBLE_EQ(store.temperature()[h], ds.temperature()[h]);
  }
}

TEST_F(StorageTest, ColumnStoreInMemoryMatchesMapped) {
  const MeterDataset ds = MakeDataset(3, 24);
  const std::string path = Path("table2.smcol");
  ASSERT_TRUE(ColumnStore::WriteFile(ds, path).ok());
  ColumnStore mapped, owned;
  ASSERT_TRUE(mapped.OpenMapped(path).ok());
  ASSERT_TRUE(owned.LoadFromDataset(ds).ok());
  EXPECT_FALSE(owned.is_mapped());
  ASSERT_EQ(mapped.num_households(), owned.num_households());
  for (size_t i = 0; i < mapped.num_households(); ++i) {
    const auto a = mapped.consumption(i);
    const auto b = owned.consumption(i);
    for (size_t h = 0; h < mapped.hours(); ++h) {
      EXPECT_DOUBLE_EQ(a[h], b[h]);
    }
  }
}

TEST_F(StorageTest, ColumnStoreRejectsCorruptFile) {
  {
    FILE* f = fopen(Path("junk.smcol").c_str(), "w");
    fputs("this is not a column store", f);
    fclose(f);
  }
  ColumnStore store;
  EXPECT_EQ(store.OpenMapped(Path("junk.smcol")).code(),
            StatusCode::kCorruption);
}

TEST_F(StorageTest, ColumnStoreRejectsTruncatedFile) {
  const MeterDataset ds = MakeDataset(2, 24);
  const std::string path = Path("trunc.smcol");
  ASSERT_TRUE(ColumnStore::WriteFile(ds, path).ok());
  fs::resize_file(path, fs::file_size(path) - 16);
  ColumnStore store;
  EXPECT_EQ(store.OpenMapped(path).code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, ColumnStoreMoveKeepsMapping) {
  const MeterDataset ds = MakeDataset(2, 24);
  const std::string path = Path("move.smcol");
  ASSERT_TRUE(ColumnStore::WriteFile(ds, path).ok());
  ColumnStore a;
  ASSERT_TRUE(a.OpenMapped(path).ok());
  ColumnStore b = std::move(a);
  EXPECT_EQ(b.num_households(), 2u);
  EXPECT_DOUBLE_EQ(b.consumption(0)[0], ds.consumer(0).consumption[0]);
}

}  // namespace
}  // namespace smartmeter::storage
