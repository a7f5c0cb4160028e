#ifndef SMARTMETER_SIMD_SIMD_H_
#define SMARTMETER_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace smartmeter::simd {

/// Portable SIMD layer for the kernel and ingestion hot paths.
///
/// Contract: every vector kernel is BIT-IDENTICAL to its *Scalar
/// counterpart, because both sides commit to the same fixed accumulation
/// order — four "lanes" striped over the input (lane j sums elements
/// 4k + j), a tail folded into lane 0, and the final reduction
/// (l0 + l1) + (l2 + l3). No FMA contraction is used on either side
/// (the library is built with -ffp-contract=off), so the rounding of
/// every intermediate matches and parity tests compare bit patterns,
/// not a tolerance. Element-wise kernels (binning, byte scans, residual
/// accumulation) are exact by construction.
///
/// The one documented exception: when a result IS NaN (junk readings
/// colliding, inf - inf), which inputs make it NaN is deterministic but
/// the NaN's payload/sign bits are not — x86 add/mul NaN propagation
/// picks "the first source operand", and which value sits in that
/// register is a codegen choice that differs even between two scalar
/// builds. Parity therefore means: bit-identical whenever the result is
/// not NaN; both-NaN otherwise.
///
/// The all-pairs block kernel (DotBlock) keeps that order per pair: a
/// tile of pairs advances together over a length chunk, but every pair
/// has its own 4-lane accumulator that sees its products in increasing
/// element order, so each output is bitwise the per-pair Dot.
///
/// The 3-line breakpoint scan (ThreeSegmentScan) is element-wise too:
/// each lane evaluates one candidate breakpoint with the scalar
/// operation sequence, and lanes that beat the running best are
/// resolved in lane order, so the first minimum wins exactly as in the
/// sequential loop.
///
/// Dispatch: the widest implementation supported by the build AND the
/// host CPU is picked once at startup (AVX2 via cpuid on x86-64, NEON on
/// aarch64, scalar otherwise). `SM_SIMD=scalar|avx2|neon` in the
/// environment clamps the level down (never up past what the CPU
/// supports), and building with -DSM_DISABLE_SIMD=ON removes the vector
/// code entirely — the dispatch table then only contains the scalar
/// kernels. Kernels without a NEON form (the gather-based band
/// selection and binning) silently fall back to scalar at that level.

enum class Level : int {
  kScalar = 0,
  kNEON = 1,
  kAVX2 = 2,
};

std::string_view LevelName(Level level);

/// Widest level the build + host CPU supports, after the SM_SIMD
/// environment clamp. Computed once, then cached.
Level DetectedLevel();

/// The level kernels currently dispatch to. Starts at DetectedLevel().
Level ActiveLevel();

/// Forces dispatch to `level` (clamped to DetectedLevel()); returns the
/// level actually installed. Benches and parity tests use this to run
/// the scalar path in a vector-capable binary.
Level SetActiveLevel(Level level);

/// RAII level override for tests and vector-vs-scalar bench panels.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : previous_(SetActiveLevel(level)) {}
  ~ScopedLevel() { SetActiveLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level previous_;
};

// ---------------------------------------------------------------------------
// Numeric kernels
// ---------------------------------------------------------------------------

/// Dot product with the fixed 4-lane striped accumulation order
/// (identical to the pre-SIMD smartmeter::stats::Dot). x and y must be
/// the same length; the hot loop of similarity search.
double Dot(std::span<const double> x, std::span<const double> y);
double DotScalar(std::span<const double> x, std::span<const double> y);

/// All-pairs dot products of a block of rows: out[a * ys.size() + b] is
/// bitwise Dot(xs[a], ys[b]) (NaN results: both NaN, see above). Every
/// row holds `length` doubles; out.size() must be xs.size() * ys.size().
/// The AVX2 form runs register micro-tiles of up to 4 x 2 pairs over
/// L1-sized length chunks, so each candidate row is read once per block
/// rather than once per pair; each pair still keeps its own striped
/// accumulator with Dot's addition order, and only the order in which
/// pairs advance changes. The scalar and NEON forms call the per-pair
/// kernel. Similarity search runs its query blocks through this.
void DotBlock(std::span<const double* const> xs,
              std::span<const double* const> ys, size_t length,
              std::span<double> out);
void DotBlockScalar(std::span<const double* const> xs,
                    std::span<const double* const> ys, size_t length,
                    std::span<double> out);

/// NaN-ignoring min/max: lanes update with `v < m ? v : m`, so a NaN
/// element never replaces the accumulator. Empty input yields
/// {+inf, -inf}. (This differs from std::minmax_element, which lets a
/// leading NaN poison the result — callers that must reject NaN ranges
/// still check std::isnan on the outputs.)
void MinMax(std::span<const double> values, double* min, double* max);
void MinMaxScalar(std::span<const double> values, double* min, double* max);

/// Equi-width binning over a fixed [min, min + width * counts.size())
/// range: each value's bucket is floor((v - min) / width) clamped into
/// [0, counts.size()). Values with a non-positive or NaN offset land in
/// bucket 0, offsets past the end in the last bucket. Requires
/// width > 0 and a non-empty counts span.
void HistogramBin(std::span<const double> values, double min, double width,
                  std::span<int64_t> counts);
void HistogramBinScalar(std::span<const double> values, double min,
                        double width, std::span<int64_t> counts);

/// out[i] = floor(values[i] / divisor) as int32. Results outside the
/// int32 range — including NaN and infinities — saturate to INT32_MIN,
/// which callers treat as a "junk reading" sentinel bin. Requires
/// divisor > 0 and out.size() == values.size().
void BinIndicesInt32(std::span<const double> values, double divisor,
                     std::span<int32_t> out);
void BinIndicesInt32Scalar(std::span<const double> values, double divisor,
                           std::span<int32_t> out);

/// Band selection for the 3-line task. For each i with
/// base <= bins[i] < base + table size, the thresholds at
/// rel = bins[i] - base decide membership:
///   high band: values[i] >= hi_table[rel]
///   low band:  values[i] <= lo_table[rel]
/// NaN table entries (dropped sparse bins) and NaN values select
/// nothing, exactly like the scalar comparisons. CountBands returns the
/// band sizes so callers can reserve exactly; SelectBands appends the
/// matching indices in ascending order.
void CountBands(std::span<const double> values,
                std::span<const int32_t> bins, int32_t base,
                std::span<const double> lo_table,
                std::span<const double> hi_table, size_t* lo_count,
                size_t* hi_count);
void CountBandsScalar(std::span<const double> values,
                      std::span<const int32_t> bins, int32_t base,
                      std::span<const double> lo_table,
                      std::span<const double> hi_table, size_t* lo_count,
                      size_t* hi_count);
void SelectBands(std::span<const double> values,
                 std::span<const int32_t> bins, int32_t base,
                 std::span<const double> lo_table,
                 std::span<const double> hi_table,
                 std::vector<int32_t>* lo_indices,
                 std::vector<int32_t>* hi_indices);
void SelectBandsScalar(std::span<const double> values,
                       std::span<const int32_t> bins, int32_t base,
                       std::span<const double> lo_table,
                       std::span<const double> hi_table,
                       std::vector<int32_t>* lo_indices,
                       std::vector<int32_t>* hi_indices);

/// PAR residual accumulation: acc[i] += c[i] - beta[i] * t[i] for every
/// i. Element-wise (each acc[i] sees one add per call), so repeated
/// calls accumulate per-slot in call order — bit-identical to the
/// scalar loop regardless of vector width. All spans must share
/// acc.size().
void AddResidual(std::span<double> acc, std::span<const double> c,
                 std::span<const double> t, std::span<const double> beta);
void AddResidualScalar(std::span<double> acc, std::span<const double> c,
                       std::span<const double> t,
                       std::span<const double> beta);

/// Prefix sums of one temperature-sorted 3-line band: entry k sums
/// points [0, k), so any contiguous segment's least-squares statistics
/// are two subtractions away. All five spans share one length.
struct SegmentPrefixSums {
  std::span<const double> sx, sy, sxx, sxy, syy;
};

/// One row of the 3-line breakpoint search: the left segment [0, i) is
/// fixed (its SSE is `sse_left`), and for j = j_begin, ..., j_end - 1 in
/// order the middle segment [i, j) gets the SSE of a least-squares line
/// with the 3-line task's segment-fit operation sequence (flat branch
/// when var_x <= 1e-12, clamped at 0). Candidate j replaces the running
/// best when
///   sse_left + mid < *best_sse && (sse_left + mid) + right_sse[j] < *best_sse,
/// so ties keep the earliest j. Returns true when *best_sse / *best_j
/// changed. Requires i < j_begin (or an empty range) and
/// prefix / right_sse spans of at least j_end entries. The AVX2 form
/// evaluates 4 consecutive j per vector, NEON 2.
bool ThreeSegmentScan(const SegmentPrefixSums& prefix, size_t i,
                      size_t j_begin, size_t j_end, double sse_left,
                      std::span<const double> right_sse, double* best_sse,
                      size_t* best_j);
bool ThreeSegmentScanScalar(const SegmentPrefixSums& prefix, size_t i,
                            size_t j_begin, size_t j_end, double sse_left,
                            std::span<const double> right_sse,
                            double* best_sse, size_t* best_j);

// ---------------------------------------------------------------------------
// Byte scanning (CSV ingestion)
// ---------------------------------------------------------------------------

/// Index of the first `needle` at or after `pos`, or npos. The SIMD form
/// of string_view::find for the delimiter/newline scans of ingestion.
size_t FindByte(std::string_view haystack, size_t pos, char needle);
size_t FindByteScalar(std::string_view haystack, size_t pos, char needle);

/// First position at or after `pos` holding either byte, or npos.
size_t FindEitherByte(std::string_view haystack, size_t pos, char a, char b);
size_t FindEitherByteScalar(std::string_view haystack, size_t pos, char a,
                            char b);

/// Number of occurrences of `needle` (exact field-count pre-pass before
/// reserve + from_chars conversion).
size_t CountByte(std::string_view haystack, char needle);
size_t CountByteScalar(std::string_view haystack, char needle);

}  // namespace smartmeter::simd

#endif  // SMARTMETER_SIMD_SIMD_H_
