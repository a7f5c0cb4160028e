#ifndef SMARTMETER_STORAGE_SCAN_SCOPE_H_
#define SMARTMETER_STORAGE_SCAN_SCOPE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace smartmeter::storage {

/// A rectangular slice of the household × hour consumption matrix: the
/// predicate a scan pushes down to the block index. Rows select
/// households in file order (the serving layer's `RowScope` routing
/// unit); hours select a time window inside every selected series. A
/// count of 0 means "through the end", so the default-constructed scope
/// selects the whole table.
struct ScanScope {
  size_t row_begin = 0;
  size_t row_count = 0;  // 0 = through the last household.
  size_t hour_begin = 0;
  size_t hour_count = 0;  // 0 = through the last hour.

  bool whole_rows() const { return row_begin == 0 && row_count == 0; }
  bool whole_hours() const { return hour_begin == 0 && hour_count == 0; }
  bool whole() const { return whole_rows() && whole_hours(); }

  /// Clamped half-open row range against a table of `rows` households.
  size_t RowBegin(size_t rows) const { return std::min(row_begin, rows); }
  size_t RowEnd(size_t rows) const {
    if (row_count == 0) return rows;
    return std::min(RowBegin(rows) + row_count, rows);
  }

  /// Clamped half-open hour range against series of `hours` entries.
  size_t HourBegin(size_t hours) const { return std::min(hour_begin, hours); }
  size_t HourEnd(size_t hours) const {
    if (hour_count == 0) return hours;
    return std::min(HourBegin(hours) + hour_count, hours);
  }
};

/// What one (possibly pruned) columnar scan covers. Block counts cover
/// every indexed block of the file (consumption, temperature, ids);
/// `bytes_on_disk` is the file's whole on-disk footprint,
/// `bytes_decoded` the raw doubles/int64s of the blocks the scope needs.
/// A scoped scan of a resident image reports its scope's coverage here
/// without decoding; the `table.scan.blocks_{decoded,pruned}` counters
/// count the decode work actually done. Flows from the format reader
/// through `BatchScan` into plan metrics and bench report rows.
struct ScanStats {
  int64_t blocks_total = 0;
  int64_t blocks_decoded = 0;
  int64_t blocks_pruned = 0;
  int64_t bytes_on_disk = 0;
  int64_t bytes_decoded = 0;

  void Add(const ScanStats& other) {
    blocks_total += other.blocks_total;
    blocks_decoded += other.blocks_decoded;
    blocks_pruned += other.blocks_pruned;
    bytes_on_disk += other.bytes_on_disk;
    bytes_decoded += other.bytes_decoded;
  }

  bool empty() const {
    return blocks_total == 0 && blocks_decoded == 0 && blocks_pruned == 0 &&
           bytes_on_disk == 0 && bytes_decoded == 0;
  }
};

}  // namespace smartmeter::storage

#endif  // SMARTMETER_STORAGE_SCAN_SCOPE_H_
