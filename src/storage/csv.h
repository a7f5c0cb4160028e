#ifndef SMARTMETER_STORAGE_CSV_H_
#define SMARTMETER_STORAGE_CSV_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "timeseries/dataset.h"

namespace smartmeter::storage {

/// On-disk text layouts used across the paper's experiments.
///
/// Single-server experiments (Section 5.3) distinguish "un-partitioned"
/// (one big reading-per-line file) from "partitioned" (one file per
/// consumer). The cluster experiments (Section 5.4.2) use three formats:
///   1. one file, one reading per line           -> kReadingPerLine
///   2. one file, one household per line          -> kHouseholdPerLine
///   3. many files, households never split across -> kWholeHouseholdFiles
enum class CsvFormat {
  kReadingPerLine,
  kHouseholdPerLine,
  kWholeHouseholdFiles,
};

/// Schema of kReadingPerLine rows: household_id,hour,consumption,temperature
struct ReadingRow {
  int64_t household_id;
  int32_t hour;
  double consumption;
  double temperature;
};

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Writes the whole dataset as one reading-per-line CSV file.
Status WriteReadingsCsv(const MeterDataset& dataset, const std::string& path);

/// Writes one file per consumer under `dir` (named <household_id>.csv),
/// reading-per-line. This is the "partitioned" layout of Figure 4/5.
/// Returns the file paths written.
Result<std::vector<std::string>> WritePartitionedCsv(
    const MeterDataset& dataset, const std::string& dir);

/// Writes `num_files` files under `dir`, each holding one or more whole
/// households, reading-per-line (cluster data format 3). Households are
/// assigned round-robin. Returns the paths.
Result<std::vector<std::string>> WriteWholeHouseholdFiles(
    const MeterDataset& dataset, const std::string& dir, int num_files);

/// Writes one household per line: "id,c0,c1,...,cN" (cluster data format
/// 2). The shared temperature series goes to "<path>.temperature" with one
/// value per line, since every task that needs temperature broadcasts it.
Status WriteHouseholdLinesCsv(const MeterDataset& dataset,
                              const std::string& path);

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

/// Reads a reading-per-line CSV back into a dataset. Rows may arrive in any
/// order; they are grouped by household and sorted by hour. All households
/// must cover the same hour range.
Result<MeterDataset> ReadReadingsCsv(const std::string& path);

/// Reads every "*.csv" file under `dir` (one file per household layout).
Result<MeterDataset> ReadPartitionedCsv(const std::string& dir);

/// Reads several reading-per-line CSV files into one dataset (the
/// whole-household-files layout, or an explicit partition list).
Result<MeterDataset> ReadReadingsCsvFiles(
    const std::vector<std::string>& paths);

/// Groups reading-per-line rows — arriving in any order — by household
/// and assembles a dense dataset (hours must cover 0..N-1 everywhere).
Result<MeterDataset> AssembleReadingRows(std::span<const ReadingRow> rows);

/// Reads a household-per-line CSV plus its "<path>.temperature" sidecar.
Result<MeterDataset> ReadHouseholdLinesCsv(const std::string& path);

/// Streaming reader over one reading-per-line CSV file; used by the
/// engines that process data without materializing a full dataset.
class ReadingCsvReader {
 public:
  explicit ReadingCsvReader(std::string path);
  ~ReadingCsvReader();

  ReadingCsvReader(const ReadingCsvReader&) = delete;
  ReadingCsvReader& operator=(const ReadingCsvReader&) = delete;

  /// Opens the file; must be called before Next().
  Status Open();

  /// Reads the next row into `row`. Returns false at EOF. Malformed rows
  /// surface through status() as "<path>:<line>: <field error>". Rows
  /// read are added to the csv.rows_scanned counter once the reader
  /// stops: at EOF, on an error, or when it is destroyed.
  bool Next(ReadingRow* row);

  const Status& status() const { return status_; }

  /// 1-based number of the last line read (0 before the first Next()).
  size_t line_number() const { return line_number_; }

 private:
  /// Adds the rows read since the last call to csv.rows_scanned.
  void PublishRows();

  std::string path_;
  FILE* file_ = nullptr;
  /// Block buffer: Next() slices lines out of 64 KiB reads instead of
  /// issuing one stdio call per row. buffer_[buffer_pos_..] is unread.
  std::string buffer_;
  size_t buffer_pos_ = 0;
  bool eof_ = false;
  size_t line_number_ = 0;
  int64_t unpublished_rows_ = 0;
  Status status_;
};

/// Parses a single reading-per-line row. Rows in the strict form the
/// writers produce ("d{1,9},d{1,9},[-]d+[.d+],[-]d+[.d+]", at most 15
/// digits per decimal) take an exact fast path whose values equal
/// from_chars's bit for bit; any other line goes through the general
/// field parser. Errors name the failing field and its 1-based column.
Result<ReadingRow> ParseReadingRow(std::string_view line);

}  // namespace smartmeter::storage

#endif  // SMARTMETER_STORAGE_CSV_H_
