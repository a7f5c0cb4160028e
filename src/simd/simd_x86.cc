// AVX2 backend. Compiled into every x86-64 build (the functions carry
// target attributes, so no file-wide -mavx2 is needed and no AVX code
// leaks into other translation units); only dispatched to when cpuid
// reports AVX2. FMA is deliberately NOT enabled: vmulpd + vaddpd round
// exactly like the scalar lanes, which is what makes the vector paths
// bit-identical to the *Scalar kernels.
#include "simd/simd_arch.h"

#if SM_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "simd/simd.h"
#include "simd/simd_internal.h"

#define SM_AVX2 __attribute__((target("avx2,popcnt")))

namespace smartmeter::simd::arch {

SM_AVX2 double DotAvx2(const double* x, const double* y, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) lanes[0] += x[i] * y[i];
  return internal::ReduceLanes(lanes);
}

namespace {

// Length chunk of the tiled dot products (doubles). An 8-row query chunk
// (16 KiB) plus a 4-row candidate panel chunk (8 KiB) stay in L1 while
// the candidates stream past, so each candidate row is read once per
// query block instead of once per query.
constexpr size_t kDotChunk = 256;

// One register micro-tile: A query rows x B candidate rows over the
// 4-aligned elements [begin, end). Pair (a, b) keeps its own striped
// accumulator in acc[4 * (a * stride + b)] across chunks and adds
// x[i + l] * y[i + l] to lane l in increasing i, which is DotAvx2's
// sequence for that pair; only the order in which pairs advance differs.
template <size_t A, size_t B>
SM_AVX2 inline void DotTileAvx2(const double* const* xs,
                                const double* const* ys, size_t begin,
                                size_t end, double* acc, size_t stride) {
  __m256d sum[A][B];
#pragma GCC unroll 4
  for (size_t a = 0; a < A; ++a) {
#pragma GCC unroll 4
    for (size_t b = 0; b < B; ++b) {
      sum[a][b] = _mm256_loadu_pd(acc + 4 * (a * stride + b));
    }
  }
  for (size_t i = begin; i < end; i += 4) {
    __m256d y[B];
#pragma GCC unroll 4
    for (size_t b = 0; b < B; ++b) y[b] = _mm256_loadu_pd(ys[b] + i);
#pragma GCC unroll 4
    for (size_t a = 0; a < A; ++a) {
      const __m256d x = _mm256_loadu_pd(xs[a] + i);
#pragma GCC unroll 4
      for (size_t b = 0; b < B; ++b) {
        sum[a][b] = _mm256_add_pd(sum[a][b], _mm256_mul_pd(x, y[b]));
      }
    }
  }
#pragma GCC unroll 4
  for (size_t a = 0; a < A; ++a) {
#pragma GCC unroll 4
    for (size_t b = 0; b < B; ++b) {
      _mm256_storeu_pd(acc + 4 * (a * stride + b), sum[a][b]);
    }
  }
}

// A panel of W (4 or 1) candidate rows against all m query rows: query
// rows go in groups of 4, then 2, then 1, each group as tiles of at
// least 4 pairs where the panel allows (4x2, 2x4, 1x4), so a 1- to
// 3-row block still runs four or more independent add chains.
template <size_t W>
SM_AVX2 inline void DotPanelAvx2(const double* const* xs, size_t m,
                                 const double* const* ys, size_t begin,
                                 size_t end, double* acc, size_t stride) {
  size_t a = 0;
  for (; a + 4 <= m; a += 4) {
    double* row = acc + 4 * a * stride;
    if constexpr (W == 4) {
      DotTileAvx2<4, 2>(xs + a, ys, begin, end, row, stride);
      DotTileAvx2<4, 2>(xs + a, ys + 2, begin, end, row + 8, stride);
    } else {
      DotTileAvx2<4, W>(xs + a, ys, begin, end, row, stride);
    }
  }
  if (a + 2 <= m) {
    DotTileAvx2<2, W>(xs + a, ys, begin, end, acc + 4 * a * stride, stride);
    a += 2;
  }
  if (a < m) {
    DotTileAvx2<1, W>(xs + a, ys, begin, end, acc + 4 * a * stride, stride);
  }
}

}  // namespace

SM_AVX2 void DotBlockAvx2(const double* const* xs, size_t m,
                          const double* const* ys, size_t n, size_t length,
                          double* out) {
  const size_t n4 = length & ~size_t{3};
  std::vector<double> acc(4 * m * n, 0.0);
  for (size_t begin = 0; begin < n4; begin += kDotChunk) {
    const size_t end = std::min(begin + kDotChunk, n4);
    size_t b = 0;
    for (; b + 4 <= n; b += 4) {
      DotPanelAvx2<4>(xs, m, ys + b, begin, end, acc.data() + 4 * b, n);
    }
    for (; b < n; ++b) {
      DotPanelAvx2<1>(xs, m, ys + b, begin, end, acc.data() + 4 * b, n);
    }
  }
  // DotAvx2's epilogue per pair: the tail into lane 0, then ReduceLanes.
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < n; ++b) {
      double* lanes = acc.data() + 4 * (a * n + b);
      for (size_t i = n4; i < length; ++i) lanes[0] += xs[a][i] * ys[b][i];
      out[a * n + b] = internal::ReduceLanes(lanes);
    }
  }
}

SM_AVX2 void MinMaxAvx2(const double* values, size_t n, double* min,
                        double* max) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  __m256d min_acc = _mm256_set1_pd(kInf);
  __m256d max_acc = _mm256_set1_pd(-kInf);
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    // min_pd(v, acc) = v < acc ? v : acc, with NaN v keeping acc —
    // exactly the scalar lane update.
    min_acc = _mm256_min_pd(v, min_acc);
    max_acc = _mm256_max_pd(v, max_acc);
  }
  alignas(32) double mins[4];
  alignas(32) double maxs[4];
  _mm256_store_pd(mins, min_acc);
  _mm256_store_pd(maxs, max_acc);
  for (; i < n; ++i) {
    const double v = values[i];
    mins[0] = v < mins[0] ? v : mins[0];
    maxs[0] = v > maxs[0] ? v : maxs[0];
  }
  const double min01 = mins[1] < mins[0] ? mins[1] : mins[0];
  const double min23 = mins[3] < mins[2] ? mins[3] : mins[2];
  *min = min23 < min01 ? min23 : min01;
  const double max01 = maxs[1] > maxs[0] ? maxs[1] : maxs[0];
  const double max23 = maxs[3] > maxs[2] ? maxs[3] : maxs[2];
  *max = max23 > max01 ? max23 : max01;
}

SM_AVX2 void HistogramBinAvx2(const double* values, size_t n, double min,
                              double width, int64_t* counts,
                              size_t num_buckets) {
  // The per-element division dominates; vdivpd retires four offsets for
  // the price of one divsd. The bucket clamp is vectorized too, mirroring
  // BucketOf lane-for-lane: `offset > 0` is false for NaN (so the and
  // zeroes NaN and non-positive lanes into bucket 0), the min caps every
  // remaining offset — including +inf — at the last bucket, and cvttpd's
  // truncation is floor for the non-negative survivors.
  const __m256d min_v = _mm256_set1_pd(min);
  const __m256d width_v = _mm256_set1_pd(width);
  const __m256d zero_v = _mm256_setzero_pd();
  const __m256d cap_v = _mm256_set1_pd(static_cast<double>(num_buckets - 1));
  size_t i = 0;
  const size_t n8 = n & ~size_t{7};
  alignas(16) int32_t lanes[8];
  for (; i < n8; i += 8) {
    __m256d a = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(values + i), min_v), width_v);
    __m256d b = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(values + i + 4), min_v), width_v);
    a = _mm256_min_pd(_mm256_and_pd(a, _mm256_cmp_pd(a, zero_v, _CMP_GT_OQ)),
                      cap_v);
    b = _mm256_min_pd(_mm256_and_pd(b, _mm256_cmp_pd(b, zero_v, _CMP_GT_OQ)),
                      cap_v);
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                    _mm256_cvttpd_epi32(a));
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 4),
                    _mm256_cvttpd_epi32(b));
    for (size_t j = 0; j < 8; ++j) {
      ++counts[static_cast<size_t>(lanes[j])];
    }
  }
  for (; i < n; ++i) {
    ++counts[internal::BucketOf((values[i] - min) / width, num_buckets)];
  }
}

SM_AVX2 void BinIndicesInt32Avx2(const double* values, size_t n,
                                 double divisor, int32_t* out) {
  const __m256d div_v = _mm256_set1_pd(divisor);
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const __m256d floored = _mm256_floor_pd(
        _mm256_div_pd(_mm256_loadu_pd(values + i), div_v));
    // cvttpd saturates NaN / out-of-range lanes to INT32_MIN — the same
    // sentinel FloorDivInt32 produces.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_cvttpd_epi32(floored));
  }
  for (; i < n; ++i) out[i] = internal::FloorDivInt32(values[i], divisor);
}

namespace {

/// Shared core of Count/SelectBands: per 4-lane group, returns the
/// low-band and high-band membership masks (bit j = lane j matches).
struct BandMasks {
  uint32_t lo;
  uint32_t hi;
};

SM_AVX2 inline BandMasks BandGroupMasks(const double* values,
                                        const int32_t* bins, size_t i,
                                        __m128i base_minus_1, __m128i end,
                                        const double* lo_table,
                                        const double* hi_table) {
  const __m128i b =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(bins + i));
  const __m128i ge = _mm_cmpgt_epi32(b, base_minus_1);
  const __m128i lt = _mm_cmpgt_epi32(end, b);
  const __m128i valid = _mm_and_si128(ge, lt);
  // Invalid lanes gather index 0 (always in range); their compares are
  // masked off below.
  const __m128i rel = _mm_sub_epi32(b, _mm_add_epi32(base_minus_1,
                                                     _mm_set1_epi32(1)));
  const __m128i idx = _mm_and_si128(rel, valid);
  // Masked gather with an explicit zero source: GCC's unmasked form
  // reads an "undefined" register, which -Wmaybe-uninitialized rejects.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d lo_thr = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                                  lo_table, idx, all, 8);
  const __m256d hi_thr = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                                  hi_table, idx, all, 8);
  const __m256d v = _mm256_loadu_pd(values + i);
  const __m256d valid_pd = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(valid));
  // Ordered compares: NaN values and NaN thresholds select nothing.
  const __m256d hi_keep =
      _mm256_and_pd(_mm256_cmp_pd(v, hi_thr, _CMP_GE_OQ), valid_pd);
  const __m256d lo_keep =
      _mm256_and_pd(_mm256_cmp_pd(v, lo_thr, _CMP_LE_OQ), valid_pd);
  return {static_cast<uint32_t>(_mm256_movemask_pd(lo_keep)),
          static_cast<uint32_t>(_mm256_movemask_pd(hi_keep))};
}

/// True when the vector kernel's int32 arithmetic is safe for this
/// (base, table_size) window; absurd windows take the scalar path.
inline bool BandWindowFits(int32_t base, size_t table_size) {
  return table_size > 0 &&
         static_cast<int64_t>(base) > std::numeric_limits<int32_t>::min() &&
         static_cast<int64_t>(base) + static_cast<int64_t>(table_size) <=
             std::numeric_limits<int32_t>::max();
}

}  // namespace

SM_AVX2 void CountBandsAvx2(const double* values, const int32_t* bins,
                            size_t n, int32_t base, const double* lo_table,
                            const double* hi_table, size_t table_size,
                            size_t* lo_count, size_t* hi_count) {
  if (!BandWindowFits(base, table_size)) {
    CountBandsScalar({values, n}, {bins, n}, base, {lo_table, table_size},
                     {hi_table, table_size}, lo_count, hi_count);
    return;
  }
  const __m128i base_minus_1 = _mm_set1_epi32(base - 1);
  const __m128i end =
      _mm_set1_epi32(base + static_cast<int32_t>(table_size));
  size_t lo = 0;
  size_t hi = 0;
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const BandMasks masks = BandGroupMasks(values, bins, i, base_minus_1,
                                           end, lo_table, hi_table);
    lo += static_cast<size_t>(__builtin_popcount(masks.lo));
    hi += static_cast<size_t>(__builtin_popcount(masks.hi));
  }
  size_t tail_lo = 0;
  size_t tail_hi = 0;
  CountBandsScalar({values + i, n - i}, {bins + i, n - i}, base,
                   {lo_table, table_size}, {hi_table, table_size}, &tail_lo,
                   &tail_hi);
  *lo_count = lo + tail_lo;
  *hi_count = hi + tail_hi;
}

SM_AVX2 void SelectBandsAvx2(const double* values, const int32_t* bins,
                             size_t n, int32_t base, const double* lo_table,
                             const double* hi_table, size_t table_size,
                             std::vector<int32_t>* lo_indices,
                             std::vector<int32_t>* hi_indices) {
  if (!BandWindowFits(base, table_size)) {
    SelectBandsScalar({values, n}, {bins, n}, base, {lo_table, table_size},
                      {hi_table, table_size}, lo_indices, hi_indices);
    return;
  }
  const __m128i base_minus_1 = _mm_set1_epi32(base - 1);
  const __m128i end =
      _mm_set1_epi32(base + static_cast<int32_t>(table_size));
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    BandMasks masks = BandGroupMasks(values, bins, i, base_minus_1, end,
                                     lo_table, hi_table);
    while (masks.hi != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(masks.hi));
      hi_indices->push_back(static_cast<int32_t>(i + lane));
      masks.hi &= masks.hi - 1;
    }
    while (masks.lo != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(masks.lo));
      lo_indices->push_back(static_cast<int32_t>(i + lane));
      masks.lo &= masks.lo - 1;
    }
  }
  // Tail through the scalar kernel; indices are relative to the tail
  // start, so rebase them.
  std::vector<int32_t> tail_lo;
  std::vector<int32_t> tail_hi;
  SelectBandsScalar({values + i, n - i}, {bins + i, n - i}, base,
                    {lo_table, table_size}, {hi_table, table_size}, &tail_lo,
                    &tail_hi);
  for (const int32_t rel : tail_lo) {
    lo_indices->push_back(static_cast<int32_t>(i) + rel);
  }
  for (const int32_t rel : tail_hi) {
    hi_indices->push_back(static_cast<int32_t>(i) + rel);
  }
}

SM_AVX2 void AddResidualAvx2(double* acc, const double* c, const double* t,
                             const double* beta, size_t n) {
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    const __m256d residual = _mm256_sub_pd(
        _mm256_loadu_pd(c + i),
        _mm256_mul_pd(_mm256_loadu_pd(beta + i), _mm256_loadu_pd(t + i)));
    _mm256_storeu_pd(acc + i,
                     _mm256_add_pd(_mm256_loadu_pd(acc + i), residual));
  }
  for (; i < n; ++i) acc[i] += c[i] - beta[i] * t[i];
}

SM_AVX2 bool ThreeSegmentScanAvx2(const SegmentPrefixSums& prefix, size_t i,
                                  size_t j_begin, size_t j_end,
                                  double sse_left,
                                  std::span<const double> right_sse,
                                  double* best_sse, size_t* best_j) {
  if (j_begin >= j_end) return false;
  const __m256d sx_i = _mm256_set1_pd(prefix.sx[i]);
  const __m256d sy_i = _mm256_set1_pd(prefix.sy[i]);
  const __m256d sxx_i = _mm256_set1_pd(prefix.sxx[i]);
  const __m256d sxy_i = _mm256_set1_pd(prefix.sxy[i]);
  const __m256d syy_i = _mm256_set1_pd(prefix.syy[i]);
  const __m256d left = _mm256_set1_pd(sse_left);
  const __m256d flat_limit = _mm256_set1_pd(1e-12);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d four = _mm256_set1_pd(4.0);
  // Lane k holds the point count j - i of candidate j + k; adding 4.0 to
  // an integer-valued double below 2^53 is exact.
  const double n0 = static_cast<double>(j_begin - i);
  __m256d count = _mm256_setr_pd(n0, n0 + 1.0, n0 + 2.0, n0 + 3.0);
  double best = *best_sse;
  size_t best_at = *best_j;
  bool improved = false;
  size_t j = j_begin;
  for (; j + 4 <= j_end; j += 4, count = _mm256_add_pd(count, four)) {
    const __m256d sx = _mm256_sub_pd(_mm256_loadu_pd(&prefix.sx[j]), sx_i);
    const __m256d sy = _mm256_sub_pd(_mm256_loadu_pd(&prefix.sy[j]), sy_i);
    const __m256d sxx =
        _mm256_sub_pd(_mm256_loadu_pd(&prefix.sxx[j]), sxx_i);
    const __m256d sxy =
        _mm256_sub_pd(_mm256_loadu_pd(&prefix.sxy[j]), sxy_i);
    const __m256d syy =
        _mm256_sub_pd(_mm256_loadu_pd(&prefix.syy[j]), syy_i);
    // internal::SegmentSse, lane-wise: both branches are computed and the
    // flat one (var_x <= 1e-12, false for NaN) selected per lane.
    const __m256d var_x = _mm256_sub_pd(
        sxx, _mm256_div_pd(_mm256_mul_pd(sx, sx), count));
    const __m256d cov = _mm256_sub_pd(
        sxy, _mm256_div_pd(_mm256_mul_pd(sx, sy), count));
    const __m256d var_y = _mm256_sub_pd(
        syy, _mm256_div_pd(_mm256_mul_pd(sy, sy), count));
    const __m256d slope = _mm256_div_pd(cov, var_x);
    const __m256d sloped = _mm256_sub_pd(var_y, _mm256_mul_pd(slope, cov));
    const __m256d flat = _mm256_cmp_pd(var_x, flat_limit, _CMP_LE_OQ);
    // max_pd(v, 0) = v > 0 ? v : 0, which is std::max(0.0, v) including
    // NaN and -0.0 inputs.
    const __m256d mid =
        _mm256_max_pd(_mm256_blendv_pd(sloped, var_y, flat), zero);
    const __m256d left_mid = _mm256_add_pd(left, mid);
    const __m256d total =
        _mm256_add_pd(left_mid, _mm256_loadu_pd(&right_sse[j]));
    // A lane that cannot beat the best as of this vector cannot beat any
    // later (smaller) best either, so only flagged lanes need the
    // sequential lane-order resolution below.
    const __m256d best_v = _mm256_set1_pd(best);
    const int hits = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(left_mid, best_v, _CMP_LT_OQ),
                      _mm256_cmp_pd(total, best_v, _CMP_LT_OQ)));
    if (hits == 0) continue;
    alignas(32) double left_mids[4];
    alignas(32) double totals[4];
    _mm256_store_pd(left_mids, left_mid);
    _mm256_store_pd(totals, total);
    for (size_t k = 0; k < 4; ++k) {
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

SM_AVX2 size_t FindByteAvx2(const char* data, size_t size, size_t pos,
                            char needle) {
  const __m256i needle_v = _mm256_set1_epi8(needle);
  size_t i = pos;
  for (; i + 32 <= size; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, needle_v)));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < size; ++i) {
    if (data[i] == needle) return i;
  }
  return static_cast<size_t>(-1);
}

SM_AVX2 size_t FindEitherByteAvx2(const char* data, size_t size, size_t pos,
                                  char a, char b) {
  const __m256i a_v = _mm256_set1_epi8(a);
  const __m256i b_v = _mm256_set1_epi8(b);
  size_t i = pos;
  for (; i + 32 <= size; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i eq = _mm256_or_si256(_mm256_cmpeq_epi8(chunk, a_v),
                                       _mm256_cmpeq_epi8(chunk, b_v));
    const uint32_t mask =
        static_cast<uint32_t>(_mm256_movemask_epi8(eq));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  for (; i < size; ++i) {
    if (data[i] == a || data[i] == b) return i;
  }
  return static_cast<size_t>(-1);
}

SM_AVX2 size_t CountByteAvx2(const char* data, size_t size, char needle) {
  const __m256i needle_v = _mm256_set1_epi8(needle);
  size_t count = 0;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(chunk, needle_v)));
    count += static_cast<size_t>(__builtin_popcount(mask));
  }
  for (; i < size; ++i) count += data[i] == needle ? 1 : 0;
  return count;
}

}  // namespace smartmeter::simd::arch

#endif  // SM_SIMD_X86
