#ifndef SMARTMETER_TABLE_COLUMNAR_BATCH_H_
#define SMARTMETER_TABLE_COLUMNAR_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "timeseries/dataset.h"

namespace smartmeter::table {

/// One household's readings as a contiguous column slice. Every kernel
/// inner loop runs over one of these, so data reaches the math as plain
/// `double*` ranges the compiler can vectorize — never through a
/// per-access callback.
using SeriesSlice = std::span<const double>;

/// Zero-copy columnar view over n household series plus the shared
/// temperature column: the one shape every storage backend (CSV parse,
/// row store, mmap'd column file, simulated HDFS blocks) is adapted to
/// before the kernels run.
///
/// A batch BORROWS all its memory. The producer — a TableReader, a
/// ColumnStore mapping, a MeterDataset — must outlive it. Two physical
/// layouts are supported behind the same accessors:
///
///  * contiguous: one household-major `count*hours` consumption column
///    (the mmap'd columnar file / cache path). `consumption(i)` is pure
///    pointer arithmetic and `consumption_column()` exposes the whole
///    column for full-scan loops.
///  * sliced: one span per household pointing at scattered vectors (the
///    in-memory dataset path). Access is one indexed load from a dense
///    slice table — still no indirect call in the hot path.
///
/// Move-only: the slice/id tables live in owned vectors whose heap
/// buffers are stable across moves.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;

  ColumnarBatch(ColumnarBatch&& other) noexcept { *this = std::move(other); }
  ColumnarBatch& operator=(ColumnarBatch&& other) noexcept;
  ColumnarBatch(const ColumnarBatch&) = delete;
  ColumnarBatch& operator=(const ColumnarBatch&) = delete;

  /// Views contiguous columnar storage: `ids` has one entry per
  /// household, `consumption` holds `ids.size() * hours` doubles in
  /// household-major order. `temperature` is the shared column (may be
  /// empty for tables that carry none, e.g. similarity series tables).
  /// `hours == 0` gives a valid batch of zero-length rows.
  static Result<ColumnarBatch> FromContiguous(std::span<const int64_t> ids,
                                              SeriesSlice consumption,
                                              SeriesSlice temperature,
                                              size_t hours);

  /// Views an in-memory dataset (builds the dense id/slice tables once;
  /// O(n) setup, zero-copy data).
  static Result<ColumnarBatch> FromDataset(const MeterDataset& dataset);

  /// Views scattered per-household slices of equal length. Used by the
  /// cluster engines' assembled series tables.
  static Result<ColumnarBatch> FromSlices(std::vector<int64_t> ids,
                                          std::vector<SeriesSlice> series,
                                          SeriesSlice temperature);

  /// A second view over the same borrowed memory — the batch analogue of
  /// copying a span. The batch is move-only, so plan scan closures that
  /// hand a resident batch to the executor re-view it instead. The
  /// original producer must outlive both views.
  ColumnarBatch View() const;

  /// A view restricted to households [begin, begin + count). `begin` is
  /// clamped to count() and the slice to what remains, mirroring
  /// `RowScope` semantics. Like View(), the result borrows the original
  /// producer's memory (the sliced layout copies only its table rows).
  Result<ColumnarBatch> Slice(size_t begin, size_t count) const;

  size_t count() const { return count_; }
  size_t hours() const { return hours_; }
  bool empty() const { return count_ == 0; }

  /// True when the consumption column is one contiguous allocation.
  bool contiguous() const { return contiguous_ != nullptr; }

  int64_t household_id(size_t i) const { return ids_[i]; }
  std::span<const int64_t> household_ids() const { return {ids_, count_}; }

  /// Household i's consumption series (hours() doubles).
  SeriesSlice consumption(size_t i) const {
    return contiguous_ != nullptr
               ? SeriesSlice(contiguous_ + i * hours_, hours_)
               : series_[i];
  }

  /// The full household-major consumption column; empty when the batch
  /// is not contiguous.
  SeriesSlice consumption_column() const {
    return contiguous_ != nullptr
               ? SeriesSlice(contiguous_, count_ * hours_)
               : SeriesSlice();
  }

  /// Shared temperature column (hours() doubles, or empty when the
  /// source carries none).
  SeriesSlice temperature() const { return temperature_; }

  /// Shape invariants: dense ids/slices, per-series length == hours(),
  /// temperature empty or hours()-long.
  Status Validate() const;

 private:
  const int64_t* ids_ = nullptr;
  size_t count_ = 0;
  size_t hours_ = 0;
  // Exactly one of these describes consumption storage.
  const double* contiguous_ = nullptr;
  const SeriesSlice* series_ = nullptr;
  SeriesSlice temperature_;
  // Backing tables for the sliced / assembled layouts; raw pointers
  // above point into these so moves stay cheap and accessors branchless.
  std::vector<int64_t> owned_ids_;
  std::vector<SeriesSlice> owned_series_;
};

}  // namespace smartmeter::table

#endif  // SMARTMETER_TABLE_COLUMNAR_BATCH_H_
