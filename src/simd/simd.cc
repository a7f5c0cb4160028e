#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <limits>

#include "simd/simd_arch.h"
#include "simd/simd_internal.h"

namespace smartmeter::simd {

namespace {

Level DetectBuildHost() {
#if SM_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
#elif SM_SIMD_NEON
  return Level::kNEON;
#endif
  return Level::kScalar;
}

/// SM_SIMD in the environment clamps the dispatch level down: "scalar"
/// always wins, the detected level's own name is a no-op, anything else
/// (including names of levels this host cannot run) is ignored.
Level ApplyEnvClamp(Level detected) {
  const char* env = std::getenv("SM_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  const std::string_view requested(env);
  if (requested == LevelName(Level::kScalar)) return Level::kScalar;
  return detected;
}

std::atomic<int> g_active_level{-1};

}  // namespace

std::string_view LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kNEON:
      return "neon";
    case Level::kAVX2:
      return "avx2";
  }
  return "unknown";
}

Level DetectedLevel() {
  static const Level detected = ApplyEnvClamp(DetectBuildHost());
  return detected;
}

Level ActiveLevel() {
  int level = g_active_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(DetectedLevel());
    int expected = -1;
    g_active_level.compare_exchange_strong(expected, level,
                                           std::memory_order_relaxed);
    level = g_active_level.load(std::memory_order_relaxed);
  }
  return static_cast<Level>(level);
}

Level SetActiveLevel(Level level) {
  const Level previous = ActiveLevel();
  const Level clamped =
      static_cast<int>(level) > static_cast<int>(DetectedLevel())
          ? DetectedLevel()
          : level;
  g_active_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
  return previous;
}

// ---------------------------------------------------------------------------
// Scalar kernels — the portable reference every vector path must match
// bit for bit.
// ---------------------------------------------------------------------------

double DotScalar(std::span<const double> x, std::span<const double> y) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  const size_t n4 = x.size() & ~size_t{3};
  for (; i < n4; i += 4) {
    lanes[0] += x[i] * y[i];
    lanes[1] += x[i + 1] * y[i + 1];
    lanes[2] += x[i + 2] * y[i + 2];
    lanes[3] += x[i + 3] * y[i + 3];
  }
  for (; i < x.size(); ++i) lanes[0] += x[i] * y[i];
  return internal::ReduceLanes(lanes);
}

void DotBlockScalar(std::span<const double* const> xs,
                    std::span<const double* const> ys, size_t length,
                    std::span<double> out) {
  for (size_t a = 0; a < xs.size(); ++a) {
    for (size_t b = 0; b < ys.size(); ++b) {
      out[a * ys.size() + b] = DotScalar({xs[a], length}, {ys[b], length});
    }
  }
}

void MinMaxScalar(std::span<const double> values, double* min, double* max) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double mins[4] = {kInf, kInf, kInf, kInf};
  double maxs[4] = {-kInf, -kInf, -kInf, -kInf};
  size_t i = 0;
  const size_t n4 = values.size() & ~size_t{3};
  for (; i < n4; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      const double v = values[i + j];
      mins[j] = v < mins[j] ? v : mins[j];  // NaN v keeps the lane.
      maxs[j] = v > maxs[j] ? v : maxs[j];
    }
  }
  for (; i < values.size(); ++i) {
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

void HistogramBinScalar(std::span<const double> values, double min,
                        double width, std::span<int64_t> counts) {
  const size_t num_buckets = counts.size();
  for (const double v : values) {
    ++counts[internal::BucketOf((v - min) / width, num_buckets)];
  }
}

void BinIndicesInt32Scalar(std::span<const double> values, double divisor,
                           std::span<int32_t> out) {
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = internal::FloorDivInt32(values[i], divisor);
  }
}

void CountBandsScalar(std::span<const double> values,
                      std::span<const int32_t> bins, int32_t base,
                      std::span<const double> lo_table,
                      std::span<const double> hi_table, size_t* lo_count,
                      size_t* hi_count) {
  const int64_t size = static_cast<int64_t>(lo_table.size());
  size_t lo = 0;
  size_t hi = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const int64_t rel = static_cast<int64_t>(bins[i]) - base;
    if (rel < 0 || rel >= size) continue;
    const double v = values[i];
    // NaN thresholds (dropped bins) and NaN values compare false.
    if (v >= hi_table[static_cast<size_t>(rel)]) ++hi;
    if (v <= lo_table[static_cast<size_t>(rel)]) ++lo;
  }
  *lo_count = lo;
  *hi_count = hi;
}

void SelectBandsScalar(std::span<const double> values,
                       std::span<const int32_t> bins, int32_t base,
                       std::span<const double> lo_table,
                       std::span<const double> hi_table,
                       std::vector<int32_t>* lo_indices,
                       std::vector<int32_t>* hi_indices) {
  const int64_t size = static_cast<int64_t>(lo_table.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const int64_t rel = static_cast<int64_t>(bins[i]) - base;
    if (rel < 0 || rel >= size) continue;
    const double v = values[i];
    if (v >= hi_table[static_cast<size_t>(rel)]) {
      hi_indices->push_back(static_cast<int32_t>(i));
    }
    if (v <= lo_table[static_cast<size_t>(rel)]) {
      lo_indices->push_back(static_cast<int32_t>(i));
    }
  }
}

void AddResidualScalar(std::span<double> acc, std::span<const double> c,
                       std::span<const double> t,
                       std::span<const double> beta) {
  for (size_t i = 0; i < acc.size(); ++i) {
    acc[i] += c[i] - beta[i] * t[i];
  }
}

bool ThreeSegmentScanScalar(const SegmentPrefixSums& prefix, size_t i,
                            size_t j_begin, size_t j_end, double sse_left,
                            std::span<const double> right_sse,
                            double* best_sse, size_t* best_j) {
  if (j_begin >= j_end) return false;
  const double sx_i = prefix.sx[i];
  const double sy_i = prefix.sy[i];
  const double sxx_i = prefix.sxx[i];
  const double sxy_i = prefix.sxy[i];
  const double syy_i = prefix.syy[i];
  double best = *best_sse;
  size_t best_at = *best_j;
  bool improved = false;
  for (size_t j = j_begin; j < j_end; ++j) {
    const double mid = internal::SegmentSse(
        static_cast<double>(j - i), prefix.sx[j] - sx_i, prefix.sy[j] - sy_i,
        prefix.sxx[j] - sxx_i, prefix.sxy[j] - sxy_i, prefix.syy[j] - syy_i);
    const double left_mid = sse_left + mid;
    const double total = left_mid + right_sse[j];
    if (left_mid < best && total < best) {
      best = total;
      best_at = j;
      improved = true;
    }
  }
  *best_sse = best;
  *best_j = best_at;
  return improved;
}

size_t FindByteScalar(std::string_view haystack, size_t pos, char needle) {
  for (size_t i = pos; i < haystack.size(); ++i) {
    if (haystack[i] == needle) return i;
  }
  return std::string_view::npos;
}

size_t FindEitherByteScalar(std::string_view haystack, size_t pos, char a,
                            char b) {
  for (size_t i = pos; i < haystack.size(); ++i) {
    if (haystack[i] == a || haystack[i] == b) return i;
  }
  return std::string_view::npos;
}

size_t CountByteScalar(std::string_view haystack, char needle) {
  size_t count = 0;
  for (const char c : haystack) count += c == needle ? 1 : 0;
  return count;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

double Dot(std::span<const double> x, std::span<const double> y) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      return arch::DotAvx2(x.data(), y.data(), x.size());
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      return arch::DotNeon(x.data(), y.data(), x.size());
#endif
    default:
      return DotScalar(x, y);
  }
}

void DotBlock(std::span<const double* const> xs,
              std::span<const double* const> ys, size_t length,
              std::span<double> out) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      arch::DotBlockAvx2(xs.data(), xs.size(), ys.data(), ys.size(), length,
                         out.data());
      return;
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      // No tiled NEON body: the per-pair kernel, in block order.
      for (size_t a = 0; a < xs.size(); ++a) {
        for (size_t b = 0; b < ys.size(); ++b) {
          out[a * ys.size() + b] = arch::DotNeon(xs[a], ys[b], length);
        }
      }
      return;
#endif
    default:
      DotBlockScalar(xs, ys, length, out);
  }
}

void MinMax(std::span<const double> values, double* min, double* max) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      arch::MinMaxAvx2(values.data(), values.size(), min, max);
      return;
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      arch::MinMaxNeon(values.data(), values.size(), min, max);
      return;
#endif
    default:
      MinMaxScalar(values, min, max);
  }
}

void HistogramBin(std::span<const double> values, double min, double width,
                  std::span<int64_t> counts) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      arch::HistogramBinAvx2(values.data(), values.size(), min, width,
                             counts.data(), counts.size());
      return;
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      arch::HistogramBinNeon(values.data(), values.size(), min, width,
                             counts.data(), counts.size());
      return;
#endif
    default:
      HistogramBinScalar(values, min, width, counts);
  }
}

void BinIndicesInt32(std::span<const double> values, double divisor,
                     std::span<int32_t> out) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      arch::BinIndicesInt32Avx2(values.data(), values.size(), divisor,
                                out.data());
      return;
#endif
    default:
      // No NEON form: aarch64 falls back to scalar here.
      BinIndicesInt32Scalar(values, divisor, out);
  }
}

void CountBands(std::span<const double> values,
                std::span<const int32_t> bins, int32_t base,
                std::span<const double> lo_table,
                std::span<const double> hi_table, size_t* lo_count,
                size_t* hi_count) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      arch::CountBandsAvx2(values.data(), bins.data(), values.size(), base,
                           lo_table.data(), hi_table.data(), lo_table.size(),
                           lo_count, hi_count);
      return;
#endif
    default:
      // Gather-based kernel: no NEON form, scalar fallback.
      CountBandsScalar(values, bins, base, lo_table, hi_table, lo_count,
                       hi_count);
  }
}

void SelectBands(std::span<const double> values,
                 std::span<const int32_t> bins, int32_t base,
                 std::span<const double> lo_table,
                 std::span<const double> hi_table,
                 std::vector<int32_t>* lo_indices,
                 std::vector<int32_t>* hi_indices) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      arch::SelectBandsAvx2(values.data(), bins.data(), values.size(), base,
                            lo_table.data(), hi_table.data(), lo_table.size(),
                            lo_indices, hi_indices);
      return;
#endif
    default:
      SelectBandsScalar(values, bins, base, lo_table, hi_table, lo_indices,
                        hi_indices);
  }
}

void AddResidual(std::span<double> acc, std::span<const double> c,
                 std::span<const double> t, std::span<const double> beta) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      arch::AddResidualAvx2(acc.data(), c.data(), t.data(), beta.data(),
                            acc.size());
      return;
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      arch::AddResidualNeon(acc.data(), c.data(), t.data(), beta.data(),
                            acc.size());
      return;
#endif
    default:
      AddResidualScalar(acc, c, t, beta);
  }
}

bool ThreeSegmentScan(const SegmentPrefixSums& prefix, size_t i,
                      size_t j_begin, size_t j_end, double sse_left,
                      std::span<const double> right_sse, double* best_sse,
                      size_t* best_j) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      return arch::ThreeSegmentScanAvx2(prefix, i, j_begin, j_end, sse_left,
                                        right_sse, best_sse, best_j);
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      return arch::ThreeSegmentScanNeon(prefix, i, j_begin, j_end, sse_left,
                                        right_sse, best_sse, best_j);
#endif
    default:
      return ThreeSegmentScanScalar(prefix, i, j_begin, j_end, sse_left,
                                    right_sse, best_sse, best_j);
  }
}

size_t FindByte(std::string_view haystack, size_t pos, char needle) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      return arch::FindByteAvx2(haystack.data(), haystack.size(), pos,
                                needle);
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      return arch::FindByteNeon(haystack.data(), haystack.size(), pos,
                                needle);
#endif
    default:
      return FindByteScalar(haystack, pos, needle);
  }
}

size_t FindEitherByte(std::string_view haystack, size_t pos, char a,
                      char b) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      return arch::FindEitherByteAvx2(haystack.data(), haystack.size(), pos,
                                      a, b);
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      return arch::FindEitherByteNeon(haystack.data(), haystack.size(), pos,
                                      a, b);
#endif
    default:
      return FindEitherByteScalar(haystack, pos, a, b);
  }
}

size_t CountByte(std::string_view haystack, char needle) {
  switch (ActiveLevel()) {
#if SM_SIMD_X86
    case Level::kAVX2:
      return arch::CountByteAvx2(haystack.data(), haystack.size(), needle);
#endif
#if SM_SIMD_NEON
    case Level::kNEON:
      return arch::CountByteNeon(haystack.data(), haystack.size(), needle);
#endif
    default:
      return CountByteScalar(haystack, needle);
  }
}

}  // namespace smartmeter::simd
