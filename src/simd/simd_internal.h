#ifndef SMARTMETER_SIMD_SIMD_INTERNAL_H_
#define SMARTMETER_SIMD_SIMD_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

// Shared per-element semantics. Every backend — scalar, AVX2, NEON —
// funnels its lane decisions through these helpers (or provably
// equivalent vector instructions) so the paths cannot drift apart.

namespace smartmeter::simd::internal {

/// Bucket of one histogram offset (already divided by the bucket
/// width): non-positive and NaN offsets land in bucket 0, offsets past
/// the end clamp into the last bucket. `num_buckets` >= 1.
inline size_t BucketOf(double offset, size_t num_buckets) {
  if (!(offset > 0.0)) return 0;  // Also catches NaN.
  if (offset >= static_cast<double>(num_buckets)) return num_buckets - 1;
  const size_t bucket = static_cast<size_t>(offset);
  // Guard against the max value rounding into a one-past bucket.
  return bucket < num_buckets ? bucket : num_buckets - 1;
}

/// floor(value / divisor) as int32; out-of-range / NaN saturates to
/// INT32_MIN (the same sentinel _mm256_cvttpd_epi32 produces), never UB.
inline int32_t FloorDivInt32(double value, double divisor) {
  const double floored = __builtin_floor(value / divisor);
  if (floored >= -2147483648.0 && floored < 2147483648.0) {
    return static_cast<int32_t>(floored);
  }
  return std::numeric_limits<int32_t>::min();
}

/// Residual sum of squares of the least-squares line through a segment
/// of `n` points with the given sums — SegmentFitter::Fit's operation
/// sequence minus slope/intercept/r^2, so the breakpoint scan and the
/// refit of its winner agree bit for bit.
inline double SegmentSse(double n, double sx, double sy, double sxx,
                         double sxy, double syy) {
  const double var_x = sxx - sx * sx / n;
  const double cov = sxy - sx * sy / n;
  const double var_y = syy - sy * sy / n;
  if (var_x <= 1e-12) return std::max(0.0, var_y);
  const double slope = cov / var_x;
  return std::max(0.0, var_y - slope * cov);
}

/// Final reduction of the 4 striped accumulator lanes; fixed order so
/// scalar and vector agree bit for bit.
inline double ReduceLanes(const double lanes[4]) {
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace smartmeter::simd::internal

#endif  // SMARTMETER_SIMD_SIMD_INTERNAL_H_
