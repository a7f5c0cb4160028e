#include "simd/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace smartmeter::simd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// The simd.h parity contract: bit-identical for every non-NaN result;
/// a NaN result must be NaN on both sides, but its payload bits are
/// codegen-dependent (x86 NaN propagation picks "the first source
/// operand") and deliberately out of contract.
bool ParityEqual(double a, double b) {
  return BitEqual(a, b) || (std::isnan(a) && std::isnan(b));
}

// Awkward tail lengths around every vector width (2, 4, 8, 16, 32 wide
// lanes), plus a year of hourly readings (8760).
const size_t kSizes[] = {0,  1,  2,  3,  4,  5,   7,   8,   9,   15, 16,
                         17, 31, 32, 33, 63, 64,  65,  100, 255, 8760};

/// Uniform series in [-50, 50); when `with_junk` is set, a NaN and both
/// infinities are planted mid-series.
std::vector<double> RandomSeries(size_t n, uint64_t seed,
                                 bool with_junk = false) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-50.0, 50.0);
  if (with_junk && n >= 4) {
    v[n / 3] = kNaN;
    v[n / 2] = kInf;
    v[(3 * n) / 4] = -kInf;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Level plumbing
// ---------------------------------------------------------------------------

TEST(SimdLevelTest, NamesAndDetection) {
  EXPECT_EQ(LevelName(Level::kScalar), "scalar");
  EXPECT_EQ(LevelName(Level::kNEON), "neon");
  EXPECT_EQ(LevelName(Level::kAVX2), "avx2");
  EXPECT_GE(static_cast<int>(DetectedLevel()),
            static_cast<int>(Level::kScalar));
  EXPECT_LE(static_cast<int>(ActiveLevel()),
            static_cast<int>(DetectedLevel()));
}

TEST(SimdLevelTest, ScopedLevelForcesScalarAndRestores) {
  const Level before = ActiveLevel();
  {
    ScopedLevel scoped(Level::kScalar);
    EXPECT_EQ(ActiveLevel(), Level::kScalar);
  }
  EXPECT_EQ(ActiveLevel(), before);
}

TEST(SimdLevelTest, SetActiveLevelClampsToDetected) {
  const Level before = ActiveLevel();
  SetActiveLevel(Level::kAVX2);  // May clamp down on non-AVX2 hosts.
  EXPECT_LE(static_cast<int>(ActiveLevel()),
            static_cast<int>(DetectedLevel()));
  SetActiveLevel(before);
}

// ---------------------------------------------------------------------------
// Numeric kernel parity: active (vector) level vs the scalar reference,
// bit for bit, across tails, junk values, and misaligned views
// ---------------------------------------------------------------------------

TEST(SimdParityTest, DotMatchesScalarBitwise) {
  for (const size_t n : kSizes) {
    for (const bool junk : {false, true}) {
      const std::vector<double> x = RandomSeries(n, 11 * n + 1, junk);
      const std::vector<double> y = RandomSeries(n, 13 * n + 2);
      EXPECT_TRUE(ParityEqual(Dot(x, y), DotScalar(x, y)))
          << "n=" << n << " junk=" << junk;
    }
  }
}

TEST(SimdParityTest, DotMatchesScalarOnMisalignedViews) {
  const std::vector<double> x = RandomSeries(1027, 3);
  const std::vector<double> y = RandomSeries(1027, 4);
  // A sliced batch view rarely starts on a 32-byte boundary.
  const std::span<const double> xs = std::span(x).subspan(1);
  const std::span<const double> ys = std::span(y).subspan(1);
  EXPECT_TRUE(BitEqual(Dot(xs, ys), DotScalar(xs, ys)));
}

// Every output of DotBlock against the per-pair Dot at the same level and
// against DotScalar. The shapes reach each micro-tile (4x2, 2x4, 1x4 and
// the 1-wide candidate remainder); the lengths straddle the 4-lane tail
// and the 256-element length chunk; rows start off 32-byte boundaries
// and some carry NaN/inf.
TEST(SimdParityTest, DotBlockMatchesPerPairDotAtEveryLevel) {
  constexpr size_t kMaxRows = 9;
  for (const Level level : {Level::kScalar, DetectedLevel()}) {
    const ScopedLevel scoped(level);
    for (const size_t length :
         {0, 1, 3, 4, 5, 255, 256, 257, 511, 513, 1029, 8760}) {
      std::vector<std::vector<double>> storage;
      std::vector<const double*> rows;
      for (size_t r = 0; r < kMaxRows; ++r) {
        storage.push_back(
            RandomSeries(length + 1, 31 * length + r, r % 4 == 3));
        rows.push_back(storage.back().data() + 1);
      }
      for (const size_t m : {1, 2, 3, 4, 5, 7, 8}) {
        for (const size_t n : {1, 2, 3, 4, 5, 9}) {
          const std::span<const double* const> xs(rows.data(), m);
          const std::span<const double* const> ys(rows.data() + kMaxRows - n,
                                                  n);
          std::vector<double> out(m * n);
          DotBlock(xs, ys, length, out);
          for (size_t a = 0; a < m; ++a) {
            for (size_t b = 0; b < n; ++b) {
              const std::span<const double> x(xs[a], length);
              const std::span<const double> y(ys[b], length);
              EXPECT_TRUE(ParityEqual(out[a * n + b], Dot(x, y)) &&
                          ParityEqual(out[a * n + b], DotScalar(x, y)))
                  << LevelName(level) << " length=" << length << " m=" << m
                  << " n=" << n << " pair=" << a << "," << b;
            }
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, MinMaxMatchesScalarBitwise) {
  for (const size_t n : kSizes) {
    for (const bool junk : {false, true}) {
      const std::vector<double> v = RandomSeries(n, 17 * n + 5, junk);
      double min_v = 0.0, max_v = 0.0, min_s = 0.0, max_s = 0.0;
      MinMax(v, &min_v, &max_v);
      MinMaxScalar(v, &min_s, &max_s);
      EXPECT_TRUE(BitEqual(min_v, min_s)) << "n=" << n << " junk=" << junk;
      EXPECT_TRUE(BitEqual(max_v, max_s)) << "n=" << n << " junk=" << junk;
    }
  }
}

TEST(SimdParityTest, MinMaxIgnoresNaNAndHandlesEmpty) {
  double min = 0.0, max = 0.0;
  MinMax({}, &min, &max);
  EXPECT_EQ(min, kInf);
  EXPECT_EQ(max, -kInf);
  const std::vector<double> v = {kNaN, 2.0, -3.0, kNaN, 7.0};
  MinMax(v, &min, &max);
  EXPECT_EQ(min, -3.0);
  EXPECT_EQ(max, 7.0);
  const std::vector<double> all_nan(9, kNaN);
  MinMax(all_nan, &min, &max);
  EXPECT_EQ(min, kInf);
  EXPECT_EQ(max, -kInf);
}

TEST(SimdParityTest, HistogramBinMatchesScalar) {
  for (const size_t n : kSizes) {
    for (const bool junk : {false, true}) {
      const std::vector<double> v = RandomSeries(n, 23 * n + 7, junk);
      std::vector<int64_t> counts_v(16, 0);
      std::vector<int64_t> counts_s(16, 0);
      HistogramBin(v, -50.0, 100.0 / 16.0, counts_v);
      HistogramBinScalar(v, -50.0, 100.0 / 16.0, counts_s);
      EXPECT_EQ(counts_v, counts_s) << "n=" << n << " junk=" << junk;
      int64_t total = 0;
      for (const int64_t c : counts_v) total += c;
      EXPECT_EQ(total, static_cast<int64_t>(n));
    }
  }
}

TEST(SimdParityTest, HistogramBinRoutesJunkToEdgeBuckets) {
  // NaN offsets land in bucket 0 (the old scalar cast was undefined);
  // +inf clamps into the last bucket, -inf into the first.
  const std::vector<double> v = {kNaN, kInf, -kInf, 0.5};
  std::vector<int64_t> counts(4, 0);
  HistogramBin(v, 0.0, 0.25, counts);
  EXPECT_EQ(counts[0], 2);  // NaN and -inf.
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[2], 1);  // 0.5 / 0.25 = 2.
  EXPECT_EQ(counts[3], 1);  // +inf.
}

TEST(SimdParityTest, BinIndicesInt32MatchesScalar) {
  for (const size_t n : kSizes) {
    const std::vector<double> v = RandomSeries(n, 29 * n + 11, true);
    std::vector<int32_t> out_v(n, 0);
    std::vector<int32_t> out_s(n, 1);
    BinIndicesInt32(v, 0.25, out_v);
    BinIndicesInt32Scalar(v, 0.25, out_s);
    EXPECT_EQ(out_v, out_s) << "n=" << n;
  }
}

TEST(SimdParityTest, BinIndicesInt32SaturatesJunkToSentinel) {
  constexpr int32_t kSentinel = std::numeric_limits<int32_t>::min();
  const std::vector<double> v = {kNaN, kInf, -kInf, 1e300, -1e300, 2.5};
  std::vector<int32_t> out(v.size(), 0);
  BinIndicesInt32(v, 1.0, out);
  EXPECT_EQ(out[0], kSentinel);
  EXPECT_EQ(out[1], kSentinel);
  EXPECT_EQ(out[2], kSentinel);
  EXPECT_EQ(out[3], kSentinel);
  EXPECT_EQ(out[4], kSentinel);
  EXPECT_EQ(out[5], 2);
}

/// Builds a band-selection fixture: bins spanning [-8, 8) with a few
/// out-of-window and sentinel entries, and threshold tables holding NaN
/// holes for dropped bins.
struct BandFixture {
  std::vector<double> values;
  std::vector<int32_t> bins;
  std::vector<double> lo_table;
  std::vector<double> hi_table;
  int32_t base = -8;
};

BandFixture MakeBandFixture(size_t n, uint64_t seed) {
  BandFixture fx;
  Rng rng(seed);
  fx.values = RandomSeries(n, seed, /*with_junk=*/true);
  fx.bins.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t roll = rng.UniformInt(20);
    if (roll < 16) {
      fx.bins[i] = static_cast<int32_t>(rng.UniformInt(16)) + fx.base;
    } else if (roll < 18) {
      fx.bins[i] = roll == 16 ? 1000 : -1000;  // Out of window.
    } else {
      fx.bins[i] = std::numeric_limits<int32_t>::min();  // Junk sentinel.
    }
  }
  fx.lo_table.assign(16, kNaN);
  fx.hi_table.assign(16, kNaN);
  for (size_t b = 0; b < 16; ++b) {
    if (b % 5 == 3) continue;  // NaN hole: a bin dropped as too sparse.
    fx.lo_table[b] = -25.0 + static_cast<double>(b);
    fx.hi_table[b] = 25.0 - static_cast<double>(b);
  }
  return fx;
}

TEST(SimdParityTest, CountAndSelectBandsMatchScalar) {
  for (const size_t n : kSizes) {
    const BandFixture fx = MakeBandFixture(n, 31 * n + 13);
    size_t lo_v = 0, hi_v = 0, lo_s = 0, hi_s = 0;
    CountBands(fx.values, fx.bins, fx.base, fx.lo_table, fx.hi_table, &lo_v,
               &hi_v);
    CountBandsScalar(fx.values, fx.bins, fx.base, fx.lo_table, fx.hi_table,
                     &lo_s, &hi_s);
    EXPECT_EQ(lo_v, lo_s) << "n=" << n;
    EXPECT_EQ(hi_v, hi_s) << "n=" << n;

    std::vector<int32_t> lo_idx_v, hi_idx_v, lo_idx_s, hi_idx_s;
    SelectBands(fx.values, fx.bins, fx.base, fx.lo_table, fx.hi_table,
                &lo_idx_v, &hi_idx_v);
    SelectBandsScalar(fx.values, fx.bins, fx.base, fx.lo_table, fx.hi_table,
                      &lo_idx_s, &hi_idx_s);
    EXPECT_EQ(lo_idx_v, lo_idx_s) << "n=" << n;
    EXPECT_EQ(hi_idx_v, hi_idx_s) << "n=" << n;
    // The counting pass must agree with the selection pass exactly —
    // the three-line task reserves from it.
    EXPECT_EQ(lo_idx_v.size(), lo_v);
    EXPECT_EQ(hi_idx_v.size(), hi_v);
  }
}

TEST(SimdParityTest, SelectBandsIndicesAscend) {
  const BandFixture fx = MakeBandFixture(513, 99);
  std::vector<int32_t> lo_idx, hi_idx;
  SelectBands(fx.values, fx.bins, fx.base, fx.lo_table, fx.hi_table, &lo_idx,
              &hi_idx);
  EXPECT_TRUE(std::is_sorted(lo_idx.begin(), lo_idx.end()));
  EXPECT_TRUE(std::is_sorted(hi_idx.begin(), hi_idx.end()));
}

TEST(SimdParityTest, AddResidualMatchesScalarBitwise) {
  for (const size_t n : kSizes) {
    for (const bool junk : {false, true}) {
      const std::vector<double> c = RandomSeries(n, 37 * n + 17, junk);
      const std::vector<double> t = RandomSeries(n, 41 * n + 19);
      const std::vector<double> beta = RandomSeries(n, 43 * n + 23);
      std::vector<double> acc_v = RandomSeries(n, 47 * n + 29);
      std::vector<double> acc_s = acc_v;
      AddResidual(acc_v, c, t, beta);
      AddResidualScalar(acc_s, c, t, beta);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(ParityEqual(acc_v[i], acc_s[i]))
            << "n=" << n << " junk=" << junk << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3-line breakpoint scan parity
// ---------------------------------------------------------------------------

/// Prefix sums over (x, y) points in the layout the 3-line search uses.
struct OwnedPrefix {
  std::vector<double> sx, sy, sxx, sxy, syy;

  SegmentPrefixSums view() const { return {sx, sy, sxx, sxy, syy}; }
};

OwnedPrefix PrefixOf(const std::vector<double>& x,
                     const std::vector<double>& y) {
  OwnedPrefix p;
  for (std::vector<double>* v : {&p.sx, &p.sy, &p.sxx, &p.sxy, &p.syy}) {
    v->assign(x.size() + 1, 0.0);
  }
  for (size_t k = 0; k < x.size(); ++k) {
    p.sx[k + 1] = p.sx[k] + x[k];
    p.sy[k + 1] = p.sy[k] + y[k];
    p.sxx[k + 1] = p.sxx[k] + x[k] * x[k];
    p.sxy[k + 1] = p.sxy[k] + x[k] * y[k];
    p.syy[k + 1] = p.syy[k] + y[k] * y[k];
  }
  return p;
}

struct ScanOutcome {
  bool improved = false;
  double best_sse = 0.0;
  size_t best_j = 0;
};

/// Runs the dispatched kernel and its scalar twin from the same running
/// best and checks they agree; returns the dispatched outcome.
ScanOutcome ExpectScanParity(const OwnedPrefix& prefix, size_t i,
                             size_t j_begin, size_t j_end, double sse_left,
                             const std::vector<double>& right_sse,
                             double best_sse) {
  constexpr size_t kNoBest = 12345;
  ScanOutcome v{false, best_sse, kNoBest};
  ScanOutcome s{false, best_sse, kNoBest};
  v.improved = ThreeSegmentScan(prefix.view(), i, j_begin, j_end, sse_left,
                                right_sse, &v.best_sse, &v.best_j);
  s.improved = ThreeSegmentScanScalar(prefix.view(), i, j_begin, j_end,
                                      sse_left, right_sse, &s.best_sse,
                                      &s.best_j);
  EXPECT_EQ(v.improved, s.improved);
  EXPECT_TRUE(ParityEqual(v.best_sse, s.best_sse))
      << v.best_sse << " vs " << s.best_sse;
  EXPECT_EQ(v.best_j, s.best_j);
  // The outputs move exactly when the kernel reports an improvement.
  EXPECT_EQ(v.improved, v.best_j != kNoBest);
  EXPECT_EQ(v.improved, !BitEqual(v.best_sse, best_sse));
  return v;
}

TEST(SimdParityTest, ThreeSegmentScanMatchesScalarOverShortScans) {
  constexpr size_t kPoints = 40;
  const std::vector<double> x = RandomSeries(kPoints, 71);
  const std::vector<double> y = RandomSeries(kPoints, 73);
  const OwnedPrefix prefix = PrefixOf(x, y);
  std::vector<double> right_sse = RandomSeries(kPoints + 1, 79);
  for (double& r : right_sse) r = std::abs(r) * 1e3;
  for (const size_t i : {size_t{0}, size_t{1}, size_t{3}, size_t{6}}) {
    // Scan lengths 0-9 cover an empty scan, pure tails, one and two full
    // vectors, and every tail length after them.
    for (size_t len = 0; len <= 9; ++len) {
      for (const size_t gap : {size_t{1}, size_t{2}, size_t{5}}) {
        const size_t j_begin = i + gap;
        for (const double sse_left : {0.0, 2.5e3}) {
          for (const double best : {kInf, 6.0e4, 0.0}) {
            SCOPED_TRACE(testing::Message()
                         << "i=" << i << " len=" << len << " gap=" << gap
                         << " left=" << sse_left << " best=" << best);
            ExpectScanParity(prefix, i, j_begin, j_begin + len, sse_left,
                             right_sse, best);
          }
        }
      }
    }
  }
}

TEST(SimdParityTest, ThreeSegmentScanFirstMinimumWins) {
  // Every x equal and every y zero: each middle segment takes the flat
  // branch with SSE exactly 0, so totals are sse_left + right_sse[j].
  constexpr size_t kPoints = 24;
  const OwnedPrefix prefix = PrefixOf(std::vector<double>(kPoints, 1.0),
                                      std::vector<double>(kPoints, 0.0));
  constexpr size_t kI = 1;
  constexpr size_t kBegin = 3;  // Unaligned start.
  constexpr size_t kEnd = kBegin + 14;
  auto run = [&](const std::vector<double>& right_sse) {
    return ExpectScanParity(prefix, kI, kBegin, kEnd, 0.5, right_sse, kInf);
  };

  // All totals equal: the first candidate wins.
  ScanOutcome out = run(std::vector<double>(kPoints + 1, 2.0));
  EXPECT_EQ(out.best_j, kBegin);
  EXPECT_EQ(out.best_sse, 2.5);

  // Equal minima in lanes 1 and 3 of the first vector.
  std::vector<double> within(kPoints + 1, 3.0);
  within[kBegin + 1] = 1.0;
  within[kBegin + 3] = 1.0;
  out = run(within);
  EXPECT_EQ(out.best_j, kBegin + 1);
  EXPECT_EQ(out.best_sse, 1.5);

  // Equal minima in different vectors (and in the tail).
  std::vector<double> across(kPoints + 1, 3.0);
  across[kBegin + 5] = 1.0;
  across[kBegin + 9] = 1.0;
  across[kBegin + 13] = 1.0;
  out = run(across);
  EXPECT_EQ(out.best_j, kBegin + 5);

  // Lanes improve one after another inside one vector: the running best
  // tightens lane by lane, so a later, smaller lane still wins.
  std::vector<double> falling(kPoints + 1, 9.0);
  falling[kBegin + 0] = 4.0;
  falling[kBegin + 1] = 3.0;
  falling[kBegin + 2] = 1.0;
  falling[kBegin + 3] = 2.0;
  out = run(falling);
  EXPECT_EQ(out.best_j, kBegin + 2);
  EXPECT_EQ(out.best_sse, 1.5);

  // A lane below the incoming best but above one already taken this
  // vector must not displace it.
  out = ExpectScanParity(prefix, kI, kBegin, kBegin + 4, 0.5, falling, 5.0);
  EXPECT_EQ(out.best_j, kBegin + 2);

  // Nothing beats a best of 0: no update at all.
  out = ExpectScanParity(prefix, kI, kBegin, kEnd, 0.0, within, 0.0);
  EXPECT_FALSE(out.improved);
}

TEST(SimdParityTest, ThreeSegmentScanJunkSumsFollowContract) {
  constexpr size_t kPoints = 32;
  const std::vector<double> x = RandomSeries(kPoints, 83);
  const std::vector<double> y = RandomSeries(kPoints, 89);
  const std::vector<double> right_clean(kPoints + 1, 10.0);
  for (const double junk : {kNaN, kInf, -kInf}) {
    for (const size_t at : {size_t{2}, size_t{9}, size_t{14}, size_t{30}}) {
      // Junk in one prefix column at a time, both as a candidate's sum
      // and (at = 2) as the broadcast left edge i.
      for (int column = 0; column < 5; ++column) {
        OwnedPrefix prefix = PrefixOf(x, y);
        std::vector<double>* cols[] = {&prefix.sx, &prefix.sy, &prefix.sxx,
                                       &prefix.sxy, &prefix.syy};
        (*cols[column])[at] = junk;
        for (size_t len = 0; len <= 9; ++len) {
          SCOPED_TRACE(testing::Message() << "junk=" << junk << " at=" << at
                                          << " column=" << column
                                          << " len=" << len);
          ExpectScanParity(prefix, 2, 5, 5 + len, 1.0, right_clean, kInf);
          ExpectScanParity(prefix, 2, 9, 9 + len + 10, 1.0, right_clean,
                           kInf);
        }
      }
    }
    // Junk right-segment SSEs and a junk left SSE.
    const OwnedPrefix prefix = PrefixOf(x, y);
    std::vector<double> right_junk(kPoints + 1, 10.0);
    right_junk[6] = junk;
    right_junk[11] = junk;
    for (size_t len = 0; len <= 9; ++len) {
      ExpectScanParity(prefix, 1, 4, 4 + len, 1.0, right_junk, kInf);
      ExpectScanParity(prefix, 1, 4, 4 + len, junk, right_clean, kInf);
    }
  }
}

// ---------------------------------------------------------------------------
// Byte-scan parity
// ---------------------------------------------------------------------------

std::string RandomCsvish(size_t n, uint64_t seed) {
  Rng rng(seed);
  static constexpr char kAlphabet[] = "0123456789.,\nab";
  std::string s(n, ' ');
  for (size_t i = 0; i < n; ++i) {
    s[i] = kAlphabet[rng.UniformInt(sizeof(kAlphabet) - 1)];
  }
  return s;
}

TEST(SimdParityTest, FindByteMatchesScalarAndStdFind) {
  for (const size_t n : kSizes) {
    const std::string s = RandomCsvish(n, 53 * n + 31);
    for (const size_t pos : {size_t{0}, size_t{1}, n / 2, n, n + 5}) {
      for (const char needle : {',', '\n', 'z'}) {
        const size_t got = FindByte(s, pos, needle);
        EXPECT_EQ(got, FindByteScalar(s, pos, needle))
            << "n=" << n << " pos=" << pos << " needle=" << needle;
        EXPECT_EQ(got, std::string_view(s).find(needle, pos));
      }
    }
  }
}

TEST(SimdParityTest, FindEitherByteMatchesScalar) {
  for (const size_t n : kSizes) {
    const std::string s = RandomCsvish(n, 59 * n + 37);
    for (const size_t pos : {size_t{0}, n / 3, n}) {
      EXPECT_EQ(FindEitherByte(s, pos, ',', '\n'),
                FindEitherByteScalar(s, pos, ',', '\n'))
          << "n=" << n << " pos=" << pos;
      EXPECT_EQ(FindEitherByte(s, pos, 'z', 'q'),
                FindEitherByteScalar(s, pos, 'z', 'q'))
          << "n=" << n << " pos=" << pos;
    }
  }
}

TEST(SimdParityTest, CountByteMatchesScalarAndStdCount) {
  for (const size_t n : kSizes) {
    const std::string s = RandomCsvish(n, 61 * n + 41);
    for (const char needle : {',', '\n', 'z'}) {
      const size_t got = CountByte(s, needle);
      EXPECT_EQ(got, CountByteScalar(s, needle));
      EXPECT_EQ(got, static_cast<size_t>(
                         std::count(s.begin(), s.end(), needle)));
    }
  }
}

// ---------------------------------------------------------------------------
// Forced-scalar dispatch: the public entry points must honour the level
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, ForcedScalarStillCorrect) {
  ScopedLevel scoped(Level::kScalar);
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Dot(x, x), 55.0);
  double min = 0.0, max = 0.0;
  MinMax(x, &min, &max);
  EXPECT_EQ(min, 1.0);
  EXPECT_EQ(max, 5.0);
  EXPECT_EQ(FindByte("a,b,c", 0, ','), 1u);
  EXPECT_EQ(CountByte("a,b,c", ','), 2u);
}

}  // namespace
}  // namespace smartmeter::simd
