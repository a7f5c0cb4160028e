// NEON backend for aarch64. float64x2 is two lanes wide, so each kernel
// runs two registers side by side to honour the shared 4-lane striping
// contract. Min/max go through explicit compare + select (vbsl) instead
// of FMIN/FMINNM so the NaN and signed-zero behaviour is the scalar
// `v < m ? v : m` by construction, and the whole library is compiled
// with -ffp-contract=off so no fused multiply sneaks into either side.
#include "simd/simd_arch.h"

#if SM_SIMD_NEON

#include <arm_neon.h>

#include <limits>

#include "simd/simd.h"
#include "simd/simd_internal.h"

namespace smartmeter::simd::arch {

double DotNeon(const double* x, const double* y, size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
    acc23 = vaddq_f64(
        acc23, vmulq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
  }
  double lanes[4];
  vst1q_f64(lanes, acc01);
  vst1q_f64(lanes + 2, acc23);
  for (; i < n; ++i) lanes[0] += x[i] * y[i];
  return internal::ReduceLanes(lanes);
}

void MinMaxNeon(const double* values, size_t n, double* min, double* max) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  float64x2_t min01 = vdupq_n_f64(kInf);
  float64x2_t min23 = vdupq_n_f64(kInf);
  float64x2_t max01 = vdupq_n_f64(-kInf);
  float64x2_t max23 = vdupq_n_f64(-kInf);
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const float64x2_t a = vld1q_f64(values + i);
    const float64x2_t b = vld1q_f64(values + i + 2);
    // v < m ? v : m — NaN lanes keep the accumulator.
    min01 = vbslq_f64(vcltq_f64(a, min01), a, min01);
    min23 = vbslq_f64(vcltq_f64(b, min23), b, min23);
    max01 = vbslq_f64(vcgtq_f64(a, max01), a, max01);
    max23 = vbslq_f64(vcgtq_f64(b, max23), b, max23);
  }
  double mins[4];
  double maxs[4];
  vst1q_f64(mins, min01);
  vst1q_f64(mins + 2, min23);
  vst1q_f64(maxs, max01);
  vst1q_f64(maxs + 2, max23);
  for (; i < n; ++i) {
    const double v = values[i];
    mins[0] = v < mins[0] ? v : mins[0];
    maxs[0] = v > maxs[0] ? v : maxs[0];
  }
  const double min_a = mins[1] < mins[0] ? mins[1] : mins[0];
  const double min_b = mins[3] < mins[2] ? mins[3] : mins[2];
  *min = min_b < min_a ? min_b : min_a;
  const double max_a = maxs[1] > maxs[0] ? maxs[1] : maxs[0];
  const double max_b = maxs[3] > maxs[2] ? maxs[3] : maxs[2];
  *max = max_b > max_a ? max_b : max_a;
}

void HistogramBinNeon(const double* values, size_t n, double min,
                      double width, int64_t* counts, size_t num_buckets) {
  const float64x2_t min_v = vdupq_n_f64(min);
  const float64x2_t width_v = vdupq_n_f64(width);
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  double offsets[4];
  for (; i < n4; i += 4) {
    const float64x2_t a =
        vdivq_f64(vsubq_f64(vld1q_f64(values + i), min_v), width_v);
    const float64x2_t b =
        vdivq_f64(vsubq_f64(vld1q_f64(values + i + 2), min_v), width_v);
    vst1q_f64(offsets, a);
    vst1q_f64(offsets + 2, b);
    for (size_t j = 0; j < 4; ++j) {
      ++counts[internal::BucketOf(offsets[j], num_buckets)];
    }
  }
  for (; i < n; ++i) {
    ++counts[internal::BucketOf((values[i] - min) / width, num_buckets)];
  }
}

void AddResidualNeon(double* acc, const double* c, const double* t,
                     const double* beta, size_t n) {
  size_t i = 0;
  const size_t n2 = n & ~size_t{1};
  for (; i < n2; i += 2) {
    const float64x2_t residual = vsubq_f64(
        vld1q_f64(c + i), vmulq_f64(vld1q_f64(beta + i), vld1q_f64(t + i)));
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), residual));
  }
  for (; i < n; ++i) acc[i] += c[i] - beta[i] * t[i];
}

bool ThreeSegmentScanNeon(const SegmentPrefixSums& prefix, size_t i,
                          size_t j_begin, size_t j_end, double sse_left,
                          std::span<const double> right_sse,
                          double* best_sse, size_t* best_j) {
  if (j_begin >= j_end) return false;
  const float64x2_t sx_i = vdupq_n_f64(prefix.sx[i]);
  const float64x2_t sy_i = vdupq_n_f64(prefix.sy[i]);
  const float64x2_t sxx_i = vdupq_n_f64(prefix.sxx[i]);
  const float64x2_t sxy_i = vdupq_n_f64(prefix.sxy[i]);
  const float64x2_t syy_i = vdupq_n_f64(prefix.syy[i]);
  const float64x2_t left = vdupq_n_f64(sse_left);
  const float64x2_t flat_limit = vdupq_n_f64(1e-12);
  const float64x2_t zero = vdupq_n_f64(0.0);
  const float64x2_t two = vdupq_n_f64(2.0);
  // Lane k holds the point count j - i of candidate j + k.
  const double n0 = static_cast<double>(j_begin - i);
  const double counts[2] = {n0, n0 + 1.0};
  float64x2_t count = vld1q_f64(counts);
  double best = *best_sse;
  size_t best_at = *best_j;
  bool improved = false;
  size_t j = j_begin;
  for (; j + 2 <= j_end; j += 2, count = vaddq_f64(count, two)) {
    const float64x2_t sx = vsubq_f64(vld1q_f64(&prefix.sx[j]), sx_i);
    const float64x2_t sy = vsubq_f64(vld1q_f64(&prefix.sy[j]), sy_i);
    const float64x2_t sxx = vsubq_f64(vld1q_f64(&prefix.sxx[j]), sxx_i);
    const float64x2_t sxy = vsubq_f64(vld1q_f64(&prefix.sxy[j]), sxy_i);
    const float64x2_t syy = vsubq_f64(vld1q_f64(&prefix.syy[j]), syy_i);
    const float64x2_t var_x =
        vsubq_f64(sxx, vdivq_f64(vmulq_f64(sx, sx), count));
    const float64x2_t cov =
        vsubq_f64(sxy, vdivq_f64(vmulq_f64(sx, sy), count));
    const float64x2_t var_y =
        vsubq_f64(syy, vdivq_f64(vmulq_f64(sy, sy), count));
    const float64x2_t slope = vdivq_f64(cov, var_x);
    const float64x2_t sloped = vsubq_f64(var_y, vmulq_f64(slope, cov));
    const float64x2_t raw =
        vbslq_f64(vcleq_f64(var_x, flat_limit), var_y, sloped);
    // Compare + select rather than FMAX: v > 0 ? v : 0 is
    // std::max(0.0, v) for NaN and -0.0 too.
    const float64x2_t mid = vbslq_f64(vcgtq_f64(raw, zero), raw, zero);
    const float64x2_t left_mid = vaddq_f64(left, mid);
    const float64x2_t total = vaddq_f64(left_mid, vld1q_f64(&right_sse[j]));
    double left_mids[2];
    double totals[2];
    vst1q_f64(left_mids, left_mid);
    vst1q_f64(totals, total);
    for (size_t k = 0; k < 2; ++k) {
      if (left_mids[k] < best && totals[k] < best) {
        best = totals[k];
        best_at = j + k;
        improved = true;
      }
    }
  }
  improved |= ThreeSegmentScanScalar(prefix, i, j, j_end, sse_left,
                                     right_sse, &best, &best_at);
  *best_sse = best;
  *best_j = best_at;
  return improved;
}

size_t FindByteNeon(const char* data, size_t size, size_t pos, char needle) {
  const uint8x16_t needle_v = vdupq_n_u8(static_cast<uint8_t>(needle));
  size_t i = pos;
  for (; i + 16 <= size; i += 16) {
    const uint8x16_t chunk =
        vld1q_u8(reinterpret_cast<const uint8_t*>(data + i));
    if (vmaxvq_u8(vceqq_u8(chunk, needle_v)) != 0) {
      for (size_t j = i; j < i + 16; ++j) {
        if (data[j] == needle) return j;
      }
    }
  }
  for (; i < size; ++i) {
    if (data[i] == needle) return i;
  }
  return static_cast<size_t>(-1);
}

size_t FindEitherByteNeon(const char* data, size_t size, size_t pos, char a,
                          char b) {
  const uint8x16_t a_v = vdupq_n_u8(static_cast<uint8_t>(a));
  const uint8x16_t b_v = vdupq_n_u8(static_cast<uint8_t>(b));
  size_t i = pos;
  for (; i + 16 <= size; i += 16) {
    const uint8x16_t chunk =
        vld1q_u8(reinterpret_cast<const uint8_t*>(data + i));
    const uint8x16_t eq =
        vorrq_u8(vceqq_u8(chunk, a_v), vceqq_u8(chunk, b_v));
    if (vmaxvq_u8(eq) != 0) {
      for (size_t j = i; j < i + 16; ++j) {
        if (data[j] == a || data[j] == b) return j;
      }
    }
  }
  for (; i < size; ++i) {
    if (data[i] == a || data[i] == b) return i;
  }
  return static_cast<size_t>(-1);
}

size_t CountByteNeon(const char* data, size_t size, char needle) {
  const uint8x16_t needle_v = vdupq_n_u8(static_cast<uint8_t>(needle));
  const uint8x16_t one_v = vdupq_n_u8(1);
  size_t count = 0;
  size_t i = 0;
  for (; i + 16 <= size; i += 16) {
    const uint8x16_t chunk =
        vld1q_u8(reinterpret_cast<const uint8_t*>(data + i));
    const uint8x16_t matches = vandq_u8(vceqq_u8(chunk, needle_v), one_v);
    count += vaddvq_u8(matches);
  }
  for (; i < size; ++i) count += data[i] == needle ? 1 : 0;
  return count;
}

}  // namespace smartmeter::simd::arch

#endif  // SM_SIMD_NEON
