#include "core/three_line_task.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "simd/simd.h"
#include "stats/quantile.h"

namespace smartmeter::core {

namespace {

using internal::BandPoint;
using internal::FitThreeSegments;

/// Prefix sums over sorted band points permitting O(1) least-squares fits
/// of any contiguous range; this keeps the optimal-breakpoint search at
/// O(P^2) instead of O(P^3).
class SegmentFitter {
 public:
  explicit SegmentFitter(std::span<const BandPoint> points) {
    const size_t n = points.size();
    sx_.assign(n + 1, 0.0);
    sy_.assign(n + 1, 0.0);
    sxx_.assign(n + 1, 0.0);
    sxy_.assign(n + 1, 0.0);
    syy_.assign(n + 1, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double x = points[i].temperature;
      const double y = points[i].value;
      sx_[i + 1] = sx_[i] + x;
      sy_[i + 1] = sy_[i] + y;
      sxx_[i + 1] = sxx_[i] + x * x;
      sxy_[i + 1] = sxy_[i] + x * y;
      syy_[i + 1] = syy_[i] + y * y;
    }
  }

  /// Least-squares line over points [begin, end); also returns the SSE.
  stats::LinearFit Fit(size_t begin, size_t end, double* sse) const {
    const double n = static_cast<double>(end - begin);
    const double sx = sx_[end] - sx_[begin];
    const double sy = sy_[end] - sy_[begin];
    const double sxx = sxx_[end] - sxx_[begin];
    const double sxy = sxy_[end] - sxy_[begin];
    const double syy = syy_[end] - syy_[begin];
    const double var_x = sxx - sx * sx / n;
    const double cov = sxy - sx * sy / n;
    const double var_y = syy - sy * sy / n;
    stats::LinearFit fit;
    fit.n = end - begin;
    if (var_x <= 1e-12) {
      fit.slope = 0.0;
      fit.intercept = sy / n;
      *sse = std::max(0.0, var_y);
      return fit;
    }
    fit.slope = cov / var_x;
    fit.intercept = (sy - fit.slope * sx) / n;
    *sse = std::max(0.0, var_y - fit.slope * cov);
    fit.r_squared = var_y > 0.0 ? 1.0 - *sse / var_y : 1.0;
    return fit;
  }

  simd::SegmentPrefixSums prefix_sums() const {
    return {sx_, sy_, sxx_, sxy_, syy_};
  }

 private:
  std::vector<double> sx_, sy_, sxx_, sxy_, syy_;
};

/// Continuity adjustment (the paper's final step): the outer lines are
/// shifted vertically so each meets the middle line at the shared
/// breakpoint. Slopes (the gradients reported to the user) are preserved.
void MakeContinuous(PiecewiseLines* lines) {
  const double t1 = lines->left.t_high;
  const double gap_left = lines->mid.ValueAt(t1) - lines->left.ValueAt(t1);
  lines->left.fit.intercept += gap_left;
  const double t2 = lines->mid.t_high;
  const double gap_right = lines->mid.ValueAt(t2) - lines->right.ValueAt(t2);
  lines->right.fit.intercept += gap_right;
}

}  // namespace

namespace internal {

ThreeSegmentFit FitThreeSegments(std::span<const BandPoint> points,
                                 int min_bins) {
  const size_t n = points.size();
  const SegmentFitter fitter(points);
  // Each segment must hold a minimum share of the points so the outer
  // lines describe regimes, not outliers.
  const size_t min_len = std::max<size_t>(
      static_cast<size_t>(min_bins), n / 20);

  ThreeSegmentFit out;
  if (n < 3 * min_len || n < 6) {
    // Too few points for three segments: one line replicated across the
    // range keeps every downstream consumer well defined.
    const stats::LinearFit fit = fitter.Fit(0, n, &out.sse);
    const double lo = points.front().temperature;
    const double hi = points.back().temperature;
    const double third = (hi - lo) / 3.0;
    out.lines.left = {lo, lo + third, fit};
    out.lines.mid = {lo + third, lo + 2 * third, fit};
    out.lines.right = {lo + 2 * third, hi, fit};
    return out;
  }

  // SSE(j, n) depends only on j: fit every right segment once instead of
  // once per surviving (i, j) pair.
  const size_t j_end = n - min_len + 1;
  std::vector<double> right_sse(j_end, 0.0);
  for (size_t j = 2 * min_len; j < j_end; ++j) {
    fitter.Fit(j, n, &right_sse[j]);
  }
  const simd::SegmentPrefixSums prefix = fitter.prefix_sums();

  double best_sse = std::numeric_limits<double>::infinity();
  size_t best_i = min_len;
  size_t best_j = 2 * min_len;
  for (size_t i = min_len; i + 2 * min_len <= n; ++i) {
    double sse_left = 0.0;
    fitter.Fit(0, i, &sse_left);
    if (sse_left >= best_sse) break;  // SSE(0, i) only grows with i.
    if (simd::ThreeSegmentScan(prefix, i, i + min_len, j_end, sse_left,
                               right_sse, &best_sse, &best_j)) {
      best_i = i;
    }
  }

  double unused = 0.0;
  const stats::LinearFit left = fitter.Fit(0, best_i, &unused);
  const stats::LinearFit mid = fitter.Fit(best_i, best_j, &unused);
  const stats::LinearFit right = fitter.Fit(best_j, n, &unused);
  // Breakpoints sit halfway between the adjoining point temperatures.
  const double t1 = 0.5 * (points[best_i - 1].temperature +
                           points[best_i].temperature);
  const double t2 = 0.5 * (points[best_j - 1].temperature +
                           points[best_j].temperature);
  out.lines.left = {points.front().temperature, t1, left};
  out.lines.mid = {t1, t2, mid};
  out.lines.right = {t2, points.back().temperature, right};
  out.i = best_i;
  out.j = best_j;
  out.sse = best_sse;
  return out;
}

}  // namespace internal

Result<ThreeLineResult> ComputeThreeLine(std::span<const double> consumption,
                                         std::span<const double> temperature,
                                         int64_t household_id,
                                         const ThreeLineOptions& options,
                                         ThreeLinePhases* phases,
                                         const exec::QueryContext* ctx) {
  if (ctx != nullptr && ctx->ShouldStop()) return ctx->CheckNotStopped();
  if (consumption.size() != temperature.size()) {
    return Status::InvalidArgument("3-line: series length mismatch");
  }
  if (consumption.empty()) {
    return Status::InvalidArgument("3-line: empty series");
  }
  if (options.temperature_bin_width <= 0.0) {
    return Status::InvalidArgument("3-line: bin width must be positive");
  }

  // ---- Binning: every reading's temperature bin, one vectorized pass --
  // Binning time is part of the T1 phase.
  Stopwatch t1_clock;
  // Non-finite or out-of-range temperatures saturate to the INT32_MIN
  // sentinel bin (the old per-reading float->int64 cast was undefined
  // for them); the sentinel bin never defines thresholds, so junk
  // readings fall out of the band selection below.
  std::vector<int32_t> bin_idx(consumption.size());
  simd::BinIndicesInt32(temperature, options.temperature_bin_width, bin_idx);
  std::map<int32_t, std::vector<double>> bins;
  for (size_t i = 0; i < consumption.size(); ++i) {
    bins[bin_idx[i]].push_back(consumption[i]);
  }

  // ---- T1: 10th/90th consumption percentile per temperature bin --------
  constexpr int32_t kJunkBin = std::numeric_limits<int32_t>::min();
  // Per retained bin: the p10/p90 thresholds that define the two bands.
  std::map<int32_t, std::pair<double, double>> thresholds;
  for (auto& [bin, values] : bins) {
    if (bin == kJunkBin) continue;
    if (static_cast<int>(values.size()) < options.min_points_per_bin) {
      continue;
    }
    SM_ASSIGN_OR_RETURN(
        double lo, stats::QuantileInPlace(&values, options.low_percentile));
    SM_ASSIGN_OR_RETURN(
        double hi, stats::QuantileInPlace(&values, options.high_percentile));
    thresholds[bin] = {lo, hi};
  }
  if (thresholds.size() < 3) {
    return Status::InvalidArgument(StringPrintf(
        "3-line: household %lld has only %zu populated temperature bins",
        static_cast<long long>(household_id), thresholds.size()));
  }
  const double t1_seconds = t1_clock.ElapsedSeconds();
  if (ctx != nullptr && ctx->ShouldStop()) return ctx->CheckNotStopped();

  // ---- T2: regression over the band readings ---------------------------
  // Following Birt et al., the lines are fitted to the readings in the
  // extreme deciles of each bin (at or above the 90th percentile / at or
  // below the 10th), not to a single summary point per bin.
  Stopwatch t2_clock;
  std::vector<BandPoint> high_points, low_points;
  size_t high_reserved = 0;
  size_t low_reserved = 0;
  const int32_t base = thresholds.begin()->first;
  const int64_t span =
      static_cast<int64_t>(thresholds.rbegin()->first) - base + 1;
  // Dense NaN-filled threshold tables let the selection kernel gather by
  // bin; bins dropped in T1 stay NaN and their compares select nothing.
  // Cap the table size so an adversarially tiny bin width over a wide
  // temperature range cannot blow up memory.
  constexpr int64_t kMaxDenseSpan = int64_t{1} << 16;
  if (span <= kMaxDenseSpan) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> lo_table(static_cast<size_t>(span), kNaN);
    std::vector<double> hi_table(static_cast<size_t>(span), kNaN);
    for (const auto& [bin, lo_hi] : thresholds) {
      lo_table[static_cast<size_t>(bin - base)] = lo_hi.first;
      hi_table[static_cast<size_t>(bin - base)] = lo_hi.second;
    }
    // Count first, then reserve exactly: the old size()/8 heuristic
    // reallocated repeatedly on skewed inputs where most readings land
    // in a band (e.g. a near-constant series).
    size_t lo_count = 0;
    size_t hi_count = 0;
    simd::CountBands(consumption, bin_idx, base, lo_table, hi_table,
                     &lo_count, &hi_count);
    std::vector<int32_t> lo_indices;
    std::vector<int32_t> hi_indices;
    lo_indices.reserve(lo_count);
    hi_indices.reserve(hi_count);
    simd::SelectBands(consumption, bin_idx, base, lo_table, hi_table,
                      &lo_indices, &hi_indices);
    high_points.reserve(hi_count);
    low_points.reserve(lo_count);
    high_reserved = high_points.capacity();
    low_reserved = low_points.capacity();
    for (const int32_t i : hi_indices) {
      high_points.push_back({temperature[i], consumption[i]});
    }
    for (const int32_t i : lo_indices) {
      low_points.push_back({temperature[i], consumption[i]});
    }
  } else {
    // Degenerate spread: fall back to map lookups, still counting before
    // the reserve so the band vectors never reallocate.
    size_t lo_count = 0;
    size_t hi_count = 0;
    for (size_t i = 0; i < consumption.size(); ++i) {
      auto it = thresholds.find(bin_idx[i]);
      if (it == thresholds.end()) continue;  // Sparse bin, dropped in T1.
      if (consumption[i] >= it->second.second) ++hi_count;
      if (consumption[i] <= it->second.first) ++lo_count;
    }
    high_points.reserve(hi_count);
    low_points.reserve(lo_count);
    high_reserved = high_points.capacity();
    low_reserved = low_points.capacity();
    for (size_t i = 0; i < consumption.size(); ++i) {
      auto it = thresholds.find(bin_idx[i]);
      if (it == thresholds.end()) continue;
      const auto& [lo, hi] = it->second;
      if (consumption[i] >= hi) {
        high_points.push_back({temperature[i], consumption[i]});
      }
      if (consumption[i] <= lo) {
        low_points.push_back({temperature[i], consumption[i]});
      }
    }
  }
  const size_t band_reallocs =
      (high_points.capacity() != high_reserved ? 1 : 0) +
      (low_points.capacity() != low_reserved ? 1 : 0);
  const size_t band_points = high_points.size() + low_points.size();
  std::sort(high_points.begin(), high_points.end());
  std::sort(low_points.begin(), low_points.end());

  ThreeLineResult result;
  result.household_id = household_id;
  result.p90 =
      FitThreeSegments(high_points, options.min_bins_per_segment).lines;
  result.p10 =
      FitThreeSegments(low_points, options.min_bins_per_segment).lines;
  const double t2_seconds = t2_clock.ElapsedSeconds();
  if (ctx != nullptr && ctx->ShouldStop()) return ctx->CheckNotStopped();

  // ---- T3: continuity adjustment ----------------------------------------
  Stopwatch t3_clock;
  MakeContinuous(&result.p90);
  MakeContinuous(&result.p10);
  result.heating_gradient = -result.p90.left.fit.slope;
  result.cooling_gradient = result.p90.right.fit.slope;
  result.base_load = std::max(0.0, result.p10.MinValue());
  const double t3_seconds = t3_clock.ElapsedSeconds();

  if (phases != nullptr) {
    phases->quantile_seconds += t1_seconds;
    phases->regression_seconds += t2_seconds;
    phases->adjust_seconds += t3_seconds;
    phases->band_points += band_points;
    phases->band_reallocs += band_reallocs;
  }
  return result;
}

Status ComputeThreeLineRange(const table::ColumnarBatch& batch, size_t begin,
                             size_t end, const ThreeLineOptions& options,
                             ThreeLinePhases* phases,
                             const exec::QueryContext* ctx,
                             std::span<ThreeLineResult> out) {
  if (end > out.size() || end > batch.count()) {
    return Status::InvalidArgument("three-line range exceeds batch/output");
  }
  const std::span<const double> temperature = batch.temperature();
  for (size_t i = begin; i < end; ++i) {
    SM_ASSIGN_OR_RETURN(
        out[i], ComputeThreeLine(batch.consumption(i), temperature,
                                 batch.household_id(i), options, phases, ctx));
  }
  return Status::OK();
}

}  // namespace smartmeter::core
