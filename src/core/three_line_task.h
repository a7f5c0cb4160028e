#ifndef SMARTMETER_CORE_THREE_LINE_TASK_H_
#define SMARTMETER_CORE_THREE_LINE_TASK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/task_types.h"
#include "exec/query_context.h"
#include "table/columnar_batch.h"

namespace smartmeter::core {

/// Options for the 3-line thermal-sensitivity algorithm (Section 3.2,
/// after Birt et al.).
struct ThreeLineOptions {
  /// Readings are grouped into temperature bins of this width (degrees C)
  /// before the per-temperature percentiles are taken.
  double temperature_bin_width = 1.0;
  /// The two percentile bands of Figure 1.
  double low_percentile = 0.10;
  double high_percentile = 0.90;
  /// Bins with fewer raw readings than this are discarded as noise.
  int min_points_per_bin = 5;
  /// Each of the three segments must cover at least this many bins.
  int min_bins_per_segment = 2;
};

/// Wall-clock breakdown matching Figure 6's stacked bars:
///   T1 = per-temperature 10th/90th percentiles,
///   T2 = piecewise regression-line fitting,
///   T3 = continuity adjustment.
struct ThreeLinePhases {
  double quantile_seconds = 0.0;
  double regression_seconds = 0.0;
  double adjust_seconds = 0.0;
  /// Band readings selected in T2 across all households.
  size_t band_points = 0;
  /// Times a band vector outgrew its reserved capacity. The counting
  /// pass sizes the reserves exactly, so this stays 0; tests assert it.
  size_t band_reallocs = 0;

  void Accumulate(const ThreeLinePhases& other) {
    quantile_seconds += other.quantile_seconds;
    regression_seconds += other.regression_seconds;
    adjust_seconds += other.adjust_seconds;
    band_points += other.band_points;
    band_reallocs += other.band_reallocs;
  }
};

/// Runs the 3-line algorithm for one consumer: computes the 10th/90th
/// percentile of consumption for each temperature bin, fits three
/// contiguous regression lines to each percentile band (optimal
/// breakpoints by total squared error), and adjusts the outer lines so the
/// piecewise model is continuous. Fails if fewer than three populated
/// temperature bins exist. `phases`, when non-null, receives the timing
/// breakdown used by Figure 6. `ctx` is polled at the phase boundaries so
/// a cancelled or expired query abandons the fit early.
Result<ThreeLineResult> ComputeThreeLine(std::span<const double> consumption,
                                         std::span<const double> temperature,
                                         int64_t household_id,
                                         const ThreeLineOptions& options = {},
                                         ThreeLinePhases* phases = nullptr,
                                         const exec::QueryContext* ctx =
                                             nullptr);

/// Fits households [begin, end) of a columnar batch against the batch's
/// shared temperature column, writing out[i] for each i in the range
/// (`out` must span at least `end` results). `phases`, when non-null,
/// accumulates the timing breakdown for the whole range — callers hand
/// in one per-thread instance and merge afterwards.
Status ComputeThreeLineRange(const table::ColumnarBatch& batch, size_t begin,
                             size_t end, const ThreeLineOptions& options,
                             ThreeLinePhases* phases,
                             const exec::QueryContext* ctx,
                             std::span<ThreeLineResult> out);

namespace internal {

/// A (temperature, consumption) reading belonging to a percentile band.
struct BandPoint {
  double temperature;
  double value;

  bool operator<(const BandPoint& other) const {
    if (temperature != other.temperature) {
      return temperature < other.temperature;
    }
    return value < other.value;
  }
};

/// The fitted lines of one band plus the breakpoint search's winner:
/// segments [0, i), [i, j), [j, n) with total SSE `sse`. A band too
/// small to split gets one line replicated over thirds of its range,
/// i = j = 0 and that line's SSE.
struct ThreeSegmentFit {
  PiecewiseLines lines;
  size_t i = 0;
  size_t j = 0;
  double sse = 0.0;
};

/// Fits the optimal 3-piece contiguous model to `points` (sorted by
/// temperature): the exhaustive search over every breakpoint pair whose
/// segments hold at least max(min_bins, n / 20) points, first minimum
/// of the total SSE winning ties.
ThreeSegmentFit FitThreeSegments(std::span<const BandPoint> points,
                                 int min_bins);

}  // namespace internal

}  // namespace smartmeter::core

#endif  // SMARTMETER_CORE_THREE_LINE_TASK_H_
