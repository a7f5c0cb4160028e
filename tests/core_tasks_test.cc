#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/histogram_task.h"
#include "core/par_task.h"
#include "core/similarity_task.h"
#include "core/three_line_task.h"
#include "datagen/temperature_model.h"
#include "simd/simd.h"
#include "stats/topk.h"
#include "timeseries/calendar.h"

namespace smartmeter::core {
namespace {

// ---------------------------------------------------------------------------
// Synthetic consumers with known ground truth
// ---------------------------------------------------------------------------

struct SyntheticConsumer {
  std::vector<double> consumption;
  std::vector<double> temperature;
};

/// A consumer with an exactly known thermal response:
///   load = base + heat_g * max(0, heat_bal - T) + cool_g * max(0, T - cool_bal)
///        + activity(hour) + noise
SyntheticConsumer MakeThermalConsumer(double base, double heat_gradient,
                                      double heat_balance,
                                      double cool_gradient,
                                      double cool_balance,
                                      double noise_sigma, uint64_t seed) {
  datagen::TemperatureModelOptions temp_options;
  temp_options.seed = seed;
  SyntheticConsumer consumer;
  consumer.temperature =
      datagen::GenerateTemperatureSeries(kHoursPerYear, temp_options);
  Rng rng(seed + 1);
  consumer.consumption.reserve(kHoursPerYear);
  for (int t = 0; t < kHoursPerYear; ++t) {
    const double temp = consumer.temperature[static_cast<size_t>(t)];
    const double heating = heat_gradient * std::max(0.0, heat_balance - temp);
    const double cooling = cool_gradient * std::max(0.0, temp - cool_balance);
    const double noise = noise_sigma * rng.NextDouble();  // One-sided.
    consumer.consumption.push_back(base + heating + cooling + noise);
  }
  return consumer;
}

// ---------------------------------------------------------------------------
// Histogram task
// ---------------------------------------------------------------------------

TEST(HistogramTaskTest, DefaultIsTenBuckets) {
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  auto hist = ComputeConsumptionHistogram(v);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->counts.size(), 10u);
  EXPECT_EQ(hist->TotalCount(), 100);
}

TEST(HistogramTaskTest, YearOfDataCountsEveryHour) {
  Rng rng(2);
  std::vector<double> v(kHoursPerYear);
  for (double& x : v) x = rng.Uniform(0, 4);
  auto hist = ComputeConsumptionHistogram(v);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist->TotalCount(), kHoursPerYear);
}

// ---------------------------------------------------------------------------
// 3-line task
// ---------------------------------------------------------------------------

TEST(ThreeLineTaskTest, RecoversGradientsAndBaseLoad) {
  // Heating 0.15 kWh/C below 12C, cooling 0.10 kWh/C above 20C,
  // base 0.4 kWh, modest noise.
  const SyntheticConsumer c = MakeThermalConsumer(
      0.4, 0.15, 12.0, 0.10, 20.0, 0.05, /*seed=*/7);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->heating_gradient, 0.15, 0.03);
  EXPECT_NEAR(result->cooling_gradient, 0.10, 0.03);
  EXPECT_NEAR(result->base_load, 0.4, 0.08);
}

TEST(ThreeLineTaskTest, FlatConsumerHasNoGradients) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.5, 0.0, 12.0, 0.0, 20.0, 0.02, /*seed=*/11);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->heating_gradient, 0.0, 0.01);
  EXPECT_NEAR(result->cooling_gradient, 0.0, 0.01);
  EXPECT_NEAR(result->base_load, 0.5, 0.03);
}

TEST(ThreeLineTaskTest, PiecewiseModelIsContinuous) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.3, 0.2, 13.0, 0.12, 19.0, 0.1, /*seed=*/13);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  for (const PiecewiseLines* lines : {&result->p90, &result->p10}) {
    const double t1 = lines->left.t_high;
    const double t2 = lines->mid.t_high;
    EXPECT_NEAR(lines->left.ValueAt(t1), lines->mid.ValueAt(t1), 1e-9);
    EXPECT_NEAR(lines->mid.ValueAt(t2), lines->right.ValueAt(t2), 1e-9);
    EXPECT_LT(lines->left.t_low, t1);
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, lines->right.t_high);
  }
}

TEST(ThreeLineTaskTest, P90DominatesP10) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.3, 0.15, 12.0, 0.1, 20.0, 0.3, /*seed=*/17);
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  // Evaluate both bands across the range: the 90th percentile band must
  // sit above the 10th.
  for (double t = -10; t <= 30; t += 2.5) {
    EXPECT_GE(result->p90.ValueAt(t), result->p10.ValueAt(t) - 1e-6) << t;
  }
}

TEST(ThreeLineTaskTest, PhaseTimesAccumulate) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.4, 0.1, 12.0, 0.1, 20.0, 0.05, /*seed=*/19);
  ThreeLinePhases phases;
  ASSERT_TRUE(
      ComputeThreeLine(c.consumption, c.temperature, 1, {}, &phases).ok());
  EXPECT_GT(phases.quantile_seconds, 0.0);
  EXPECT_GT(phases.regression_seconds, 0.0);
  EXPECT_GE(phases.adjust_seconds, 0.0);
}

TEST(ThreeLineTaskTest, SkewedInputNeverReallocatesBandVectors) {
  // A near-constant consumer is the pathological case for the old
  // size()/8 reserve heuristic: almost every reading sits at or beyond
  // both percentile thresholds, so both bands hold close to ALL of the
  // readings and the vectors regrew repeatedly. The counting pass sizes
  // them exactly; the phases counter proves it.
  std::vector<double> consumption, temperature;
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    temperature.push_back(rng.Uniform(0.0, 10.0));
    consumption.push_back(1.0);  // Constant: p10 == p90 == 1.0.
  }
  ThreeLinePhases phases;
  auto result =
      ComputeThreeLine(consumption, temperature, 1, {}, &phases);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(phases.band_reallocs, 0u);
  // Every reading is in both bands: 2 * 3000 band points.
  EXPECT_EQ(phases.band_points, 6000u);
}

TEST(ThreeLineTaskTest, JunkTemperaturesAreIgnored) {
  // NaN / infinite temperatures used to hit an undefined float->int
  // cast in the binning; now they saturate into a sentinel bin that
  // never defines thresholds, so the fit just ignores them.
  SyntheticConsumer c = MakeThermalConsumer(
      0.4, 0.1, 12.0, 0.1, 20.0, 0.05, /*seed=*/41);
  c.temperature[10] = std::numeric_limits<double>::quiet_NaN();
  c.temperature[20] = std::numeric_limits<double>::infinity();
  c.temperature[30] = -std::numeric_limits<double>::infinity();
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isfinite(result->heating_gradient));
  EXPECT_TRUE(std::isfinite(result->cooling_gradient));
}

TEST(ThreeLineTaskTest, RejectsDegenerateInput) {
  EXPECT_FALSE(ComputeThreeLine({}, {}, 1).ok());
  const std::vector<double> c = {1.0, 2.0};
  const std::vector<double> t = {1.0};
  EXPECT_FALSE(ComputeThreeLine(c, t, 1).ok());
  // Single temperature bin cannot support three lines.
  const std::vector<double> c2(100, 1.0);
  const std::vector<double> t2(100, 5.0);
  EXPECT_FALSE(ComputeThreeLine(c2, t2, 1).ok());
}

TEST(ThreeLineTaskTest, MinPointsPerBinFiltersSparseBins) {
  // 30 readings spread over 3 bins + 1 outlier reading at T=50.
  std::vector<double> consumption, temperature;
  Rng rng(23);
  for (int bin = 0; bin < 6; ++bin) {
    for (int i = 0; i < 30; ++i) {
      temperature.push_back(bin * 2.0 + 0.3);
      consumption.push_back(1.0 + rng.NextDouble() * 0.1);
    }
  }
  temperature.push_back(50.0);
  consumption.push_back(99.0);
  ThreeLineOptions options;
  options.min_points_per_bin = 5;
  options.temperature_bin_width = 2.0;
  auto result = ComputeThreeLine(consumption, temperature, 1, options);
  ASSERT_TRUE(result.ok());
  // The outlier bin was dropped: the fitted range ends well below 50 C.
  EXPECT_LT(result->p90.right.t_high, 20.0);
}

// ---------------------------------------------------------------------------
// Breakpoint-search oracle: the exhaustive O(P^2) search as it stood
// before the right-segment SSE was hoisted and the j scan vectorized,
// kept verbatim apart from also reporting its winner. The production
// search must agree with it bit for bit.
// ---------------------------------------------------------------------------

using internal::BandPoint;
using internal::ThreeSegmentFit;

class ReferenceSegmentFitter {
 public:
  explicit ReferenceSegmentFitter(const std::vector<BandPoint>& points) {
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

 private:
  std::vector<double> sx_, sy_, sxx_, sxy_, syy_;
};

ThreeSegmentFit ReferenceFitThreeSegments(const std::vector<BandPoint>& points,
                                          int min_bins) {
  const size_t n = points.size();
  const ReferenceSegmentFitter fitter(points);
  const size_t min_len = std::max<size_t>(
      static_cast<size_t>(min_bins), n / 20);

  ThreeSegmentFit out;
  if (n < 3 * min_len || n < 6) {
    const stats::LinearFit fit = fitter.Fit(0, n, &out.sse);
    const double lo = points.front().temperature;
    const double hi = points.back().temperature;
    const double third = (hi - lo) / 3.0;
    out.lines.left = {lo, lo + third, fit};
    out.lines.mid = {lo + third, lo + 2 * third, fit};
    out.lines.right = {lo + 2 * third, hi, fit};
    return out;
  }

  double best_sse = std::numeric_limits<double>::infinity();
  size_t best_i = min_len;
  size_t best_j = 2 * min_len;
  for (size_t i = min_len; i + 2 * min_len <= n; ++i) {
    double sse_left = 0.0;
    fitter.Fit(0, i, &sse_left);
    if (sse_left >= best_sse) break;  // SSE(0, i) only grows with i.
    for (size_t j = i + min_len; j + min_len <= n; ++j) {
      double sse_mid = 0.0, sse_right = 0.0;
      fitter.Fit(i, j, &sse_mid);
      if (sse_left + sse_mid >= best_sse) continue;
      fitter.Fit(j, n, &sse_right);
      const double total = sse_left + sse_mid + sse_right;
      if (total < best_sse) {
        best_sse = total;
        best_i = i;
        best_j = j;
      }
    }
  }

  double unused = 0.0;
  const stats::LinearFit left = fitter.Fit(0, best_i, &unused);
  const stats::LinearFit mid = fitter.Fit(best_i, best_j, &unused);
  const stats::LinearFit right = fitter.Fit(best_j, n, &unused);
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

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameSegment(const LineSegment& got, const LineSegment& want,
                       const char* name) {
  EXPECT_TRUE(SameBits(got.t_low, want.t_low)) << name;
  EXPECT_TRUE(SameBits(got.t_high, want.t_high)) << name;
  EXPECT_TRUE(SameBits(got.fit.slope, want.fit.slope)) << name;
  EXPECT_TRUE(SameBits(got.fit.intercept, want.fit.intercept)) << name;
  EXPECT_TRUE(SameBits(got.fit.r_squared, want.fit.r_squared)) << name;
  EXPECT_EQ(got.fit.n, want.fit.n) << name;
}

/// Runs the production search at the dispatched level and pinned to
/// scalar, checking both against the reference bit for bit.
void ExpectMatchesReference(std::vector<BandPoint> points, int min_bins) {
  std::sort(points.begin(), points.end());
  const ThreeSegmentFit want = ReferenceFitThreeSegments(points, min_bins);
  for (const simd::Level level :
       {simd::DetectedLevel(), simd::Level::kScalar}) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << points.size() << " min_bins=" << min_bins
                 << " level=" << simd::LevelName(level));
    const simd::ScopedLevel scoped(level);
    const ThreeSegmentFit got = internal::FitThreeSegments(points, min_bins);
    EXPECT_EQ(got.i, want.i);
    EXPECT_EQ(got.j, want.j);
    EXPECT_TRUE(SameBits(got.sse, want.sse)) << got.sse << " vs " << want.sse;
    ExpectSameSegment(got.lines.left, want.lines.left, "left");
    ExpectSameSegment(got.lines.mid, want.lines.mid, "mid");
    ExpectSameSegment(got.lines.right, want.lines.right, "right");
  }
}

/// A thermal-response band: V-shaped load over uniform temperatures.
std::vector<BandPoint> RandomBand(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<BandPoint> points(n);
  for (BandPoint& p : points) {
    p.temperature = rng.Uniform(-10.0, 35.0);
    p.value = 0.4 + 0.15 * std::max(0.0, 12.0 - p.temperature) +
              0.1 * std::max(0.0, p.temperature - 20.0) +
              0.3 * rng.NextDouble();
  }
  return points;
}

TEST(ThreeSegmentOracleTest, SeededRandomBandsMatchExhaustiveSearch) {
  const size_t sizes[] = {6, 7, 8, 9, 13, 40, 41, 59, 60, 61, 137, 400, 901};
  uint64_t seed = 100;
  for (const size_t n : sizes) {
    for (int rep = 0; rep < 3; ++rep) {
      ExpectMatchesReference(RandomBand(n, ++seed), 2);
    }
  }
  // Uncorrelated noise as well: breakpoints land anywhere.
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(++seed);
    std::vector<BandPoint> points(250);
    for (BandPoint& p : points) {
      p.temperature = rng.Uniform(-5.0, 5.0);
      p.value = rng.Uniform(0.0, 3.0);
    }
    ExpectMatchesReference(points, 3);
  }
}

TEST(ThreeSegmentOracleTest, TieHeavyBandsMatchExhaustiveSearch) {
  uint64_t seed = 500;
  for (const size_t n : {12, 31, 64, 200, 777}) {
    for (const int distinct : {1, 2, 5, 17}) {
      Rng rng(++seed);
      // Duplicate temperatures: many segments have var_x <= 1e-12 and
      // take the flat branch.
      std::vector<BandPoint> constant(n);
      std::vector<BandPoint> stepped(n);
      for (size_t k = 0; k < n; ++k) {
        const double t = static_cast<double>(rng.UniformInt(distinct));
        constant[k] = {t, 0.7};
        stepped[k] = {t, t < distinct / 2.0 ? 1.25 : 0.5};
      }
      ExpectMatchesReference(constant, 2);
      ExpectMatchesReference(stepped, 2);
    }
    // Constant consumption over distinct temperatures: every candidate
    // total is (close to) zero.
    std::vector<BandPoint> flat(n);
    for (size_t k = 0; k < n; ++k) {
      flat[k] = {static_cast<double>(k) * 0.25, 1.5};
    }
    ExpectMatchesReference(flat, 2);
  }
  // Temperatures a hair apart: segment var_x straddles the 1e-12 flat
  // threshold, so both branches of the fit meet in one search.
  for (const size_t n : {60, 300, 900}) {
    Rng rng(++seed);
    std::vector<BandPoint> near_flat(n);
    for (BandPoint& p : near_flat) {
      p.temperature = 1e-7 * static_cast<double>(rng.UniformInt(5));
      p.value = rng.Uniform(0.0, 2.0);
    }
    ExpectMatchesReference(near_flat, 2);
  }
  // Few temperatures and small-integer consumption: different splits
  // produce bitwise-equal totals, so the first-minimum rule decides
  // the winner in a few percent of these bands.
  for (int rep = 0; rep < 2000; ++rep) {
    Rng rng(++seed);
    const size_t n = 12 + rng.UniformInt(40);
    const uint64_t distinct = 1 + rng.UniformInt(3);
    std::vector<BandPoint> quantized(n);
    for (BandPoint& p : quantized) {
      p.temperature = static_cast<double>(rng.UniformInt(distinct));
      p.value = static_cast<double>(std::max<uint64_t>(rng.UniformInt(5), 2) - 2);
    }
    ExpectMatchesReference(quantized, 2);
  }
}

TEST(ThreeSegmentOracleTest, MinimumLengthBoundaryMatchesExhaustiveSearch) {
  uint64_t seed = 900;
  for (const int min_bins : {2, 3, 4, 5, 7, 10, 20, 33}) {
    const size_t boundary = 3 * static_cast<size_t>(min_bins);
    // n == 3 * min_len admits exactly one split; one fewer point falls
    // back to a single line, one more admits a handful.
    for (const size_t n : {boundary - 1, boundary, boundary + 1,
                           boundary + 2, boundary + 5}) {
      ExpectMatchesReference(RandomBand(n, ++seed), min_bins);
    }
  }
}

TEST(ThreeSegmentOracleTest, ComputeThreeLineIsLevelIndependent) {
  for (const uint64_t seed : {7u, 23u, 41u}) {
    const SyntheticConsumer c =
        MakeThermalConsumer(0.4, 0.15, 12.0, 0.10, 20.0, 0.2, seed);
    Result<ThreeLineResult> scalar = Status::Internal("unset");
    {
      const simd::ScopedLevel scoped(simd::Level::kScalar);
      scalar = ComputeThreeLine(c.consumption, c.temperature, 1);
    }
    const Result<ThreeLineResult> detected =
        ComputeThreeLine(c.consumption, c.temperature, 1);
    ASSERT_TRUE(scalar.ok() && detected.ok());
    for (const auto& [got, want] :
         {std::pair{&detected->p90, &scalar->p90},
          std::pair{&detected->p10, &scalar->p10}}) {
      ExpectSameSegment(got->left, want->left, "left");
      ExpectSameSegment(got->mid, want->mid, "mid");
      ExpectSameSegment(got->right, want->right, "right");
    }
    EXPECT_TRUE(SameBits(detected->heating_gradient, scalar->heating_gradient));
    EXPECT_TRUE(SameBits(detected->cooling_gradient, scalar->cooling_gradient));
    EXPECT_TRUE(SameBits(detected->base_load, scalar->base_load));
  }
}

// ---------------------------------------------------------------------------
// PAR (daily profile) task
// ---------------------------------------------------------------------------

TEST(ParTaskTest, RecoversActivityProfileShape) {
  // A consumer whose temperature-independent load is a fixed 24-hour
  // pattern; temperature effect is linear with known coefficient.
  datagen::TemperatureModelOptions temp_options;
  temp_options.seed = 31;
  const std::vector<double> temperature =
      datagen::GenerateTemperatureSeries(kHoursPerYear, temp_options);
  std::vector<double> profile(24);
  for (int h = 0; h < 24; ++h) {
    profile[static_cast<size_t>(h)] =
        1.0 + 0.5 * std::sin(2.0 * M_PI * h / 24.0);
  }
  const double temp_beta = 0.02;
  Rng rng(37);
  std::vector<double> consumption(kHoursPerYear);
  for (int t = 0; t < kHoursPerYear; ++t) {
    consumption[static_cast<size_t>(t)] =
        profile[static_cast<size_t>(t % 24)] +
        temp_beta * temperature[static_cast<size_t>(t)] +
        rng.Gaussian(0.0, 0.02);
  }
  auto result = ComputeDailyProfile(consumption, temperature, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->profile.size(), 24u);
  for (int h = 0; h < 24; ++h) {
    EXPECT_NEAR(result->profile[static_cast<size_t>(h)],
                profile[static_cast<size_t>(h)], 0.06)
        << "hour " << h;
    EXPECT_NEAR(result->temperature_beta[static_cast<size_t>(h)], temp_beta,
                0.01)
        << "hour " << h;
  }
}

TEST(ParTaskTest, CoefficientLayoutMatchesOptions) {
  const SyntheticConsumer c = MakeThermalConsumer(
      0.5, 0.1, 12.0, 0.05, 20.0, 0.05, /*seed=*/41);
  ParOptions options;
  options.lags = 3;
  auto result = ComputeDailyProfile(c.consumption, c.temperature, 9,
                                    options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->household_id, 9);
  ASSERT_EQ(result->coefficients.size(), 24u);
  for (const auto& coeffs : result->coefficients) {
    EXPECT_EQ(coeffs.size(), 5u);  // intercept + 3 lags + temperature.
  }
}

TEST(ParTaskTest, ClampsNegativeProfileValues) {
  // Strong negative temperature effect on a tiny base can push the naive
  // profile negative; clamping keeps it at zero.
  const std::vector<double> temperature(24 * 30, 25.0);
  std::vector<double> consumption(24 * 30, 0.01);
  auto result = ComputeDailyProfile(consumption, temperature, 1);
  ASSERT_TRUE(result.ok());
  for (double v : result->profile) EXPECT_GE(v, 0.0);
}

TEST(ParTaskTest, RejectsTooLittleData) {
  const std::vector<double> shorty(24 * 4, 1.0);
  EXPECT_FALSE(ComputeDailyProfile(shorty, shorty, 1).ok());
  const std::vector<double> c(48, 1.0);
  const std::vector<double> t(24, 1.0);
  EXPECT_FALSE(ComputeDailyProfile(c, t, 1).ok());
}

TEST(ParTaskTest, LagCountValidated) {
  const std::vector<double> v(kHoursPerYear, 1.0);
  ParOptions options;
  options.lags = 0;
  EXPECT_FALSE(ComputeDailyProfile(v, v, 1, options).ok());
}

// ---------------------------------------------------------------------------
// Similarity task
// ---------------------------------------------------------------------------

std::vector<SeriesView> MakeViews(
    const std::vector<std::pair<int64_t, std::vector<double>>>& data) {
  std::vector<SeriesView> views;
  views.reserve(data.size());
  for (const auto& [id, series] : data) {
    views.push_back({id, series});
  }
  return views;
}

TEST(SimilarityTaskTest, FindsParallelSeries) {
  const std::vector<std::pair<int64_t, std::vector<double>>> data = {
      {1, {1.0, 2.0, 3.0}},
      {2, {2.0, 4.0, 6.0}},   // Parallel to 1.
      {3, {3.0, 2.0, 1.0}},   // Reversed.
      {4, {-1.0, -2.0, -3.0}},  // Anti-parallel to 1.
  };
  SimilarityOptions options;
  options.k = 1;
  auto results = ComputeSimilarityTopK(MakeViews(data), options);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  EXPECT_EQ((*results)[0].household_id, 1);
  ASSERT_EQ((*results)[0].matches.size(), 1u);
  EXPECT_EQ((*results)[0].matches[0].household_id, 2);
  EXPECT_NEAR((*results)[0].matches[0].cosine, 1.0, 1e-12);
  EXPECT_EQ((*results)[1].matches[0].household_id, 1);
}

TEST(SimilarityTaskTest, SelfIsExcluded) {
  const std::vector<std::pair<int64_t, std::vector<double>>> data = {
      {1, {1.0, 0.0}}, {2, {0.0, 1.0}}, {3, {1.0, 1.0}}};
  auto results = ComputeSimilarityTopK(MakeViews(data));
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    for (const auto& m : r.matches) {
      EXPECT_NE(m.household_id, r.household_id);
    }
  }
}

TEST(SimilarityTaskTest, KCapsMatchCount) {
  Rng rng(43);
  std::vector<std::pair<int64_t, std::vector<double>>> data;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> v(8);
    for (double& x : v) x = rng.Gaussian(0, 1);
    data.emplace_back(i, std::move(v));
  }
  SimilarityOptions options;
  options.k = 10;
  auto results = ComputeSimilarityTopK(MakeViews(data), options);
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    EXPECT_EQ(r.matches.size(), 10u);
    // Matches sorted best-first.
    for (size_t i = 1; i < r.matches.size(); ++i) {
      EXPECT_GE(r.matches[i - 1].cosine, r.matches[i].cosine);
    }
  }
}

TEST(SimilarityTaskTest, RangeMatchesFull) {
  Rng rng(47);
  std::vector<std::pair<int64_t, std::vector<double>>> data;
  for (int i = 0; i < 12; ++i) {
    std::vector<double> v(16);
    for (double& x : v) x = rng.Gaussian(0, 1);
    data.emplace_back(100 + i, std::move(v));
  }
  const auto views = MakeViews(data);
  const std::vector<double> norms = ComputeNorms(views);
  auto full = ComputeSimilarityTopK(views);
  ASSERT_TRUE(full.ok());
  auto part1 = ComputeSimilarityTopKRange(views, norms, 0, 6, {});
  auto part2 = ComputeSimilarityTopKRange(views, norms, 6, 12, {});
  ASSERT_TRUE(part1.ok());
  ASSERT_TRUE(part2.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*part1)[i].matches[0].household_id,
              (*full)[i].matches[0].household_id);
    EXPECT_EQ((*part2)[i].matches[0].household_id,
              (*full)[i + 6].matches[0].household_id);
  }
}

TEST(SimilarityTaskTest, RejectsBadInput) {
  EXPECT_FALSE(ComputeSimilarityTopK({}).ok());
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  std::vector<SeriesView> views = {{1, a}, {2, b}};
  EXPECT_FALSE(ComputeSimilarityTopK(views).ok());
  std::vector<SeriesView> ok_views = {{1, a}, {2, a}};
  SimilarityOptions options;
  options.k = 0;
  EXPECT_FALSE(ComputeSimilarityTopK(ok_views, options).ok());
}

// Oracle for the blocked similarity kernel: the per-pair loop it
// replaced, one Dot and one zero-norm check per (query, candidate) pair in
// candidate order. perfbench's reference answer calls the kernel under
// test itself, so this copy is what pins the blocked path bit for bit.
std::vector<SimilarityResult> ReferenceSimilarityTopKRange(
    std::span<const SeriesView> series, std::span<const double> norms,
    size_t query_begin, size_t query_end, const SimilarityOptions& options) {
  std::vector<SimilarityResult> results;
  results.reserve(query_end - query_begin);
  for (size_t q = query_begin; q < query_end; ++q) {
    stats::TopK<int64_t> top(static_cast<size_t>(options.k));
    for (size_t o = 0; o < series.size(); ++o) {
      if (o == q) continue;
      const double cosine =
          norms[q] == 0.0 || norms[o] == 0.0
              ? 0.0
              : simd::Dot(series[q].values, series[o].values) /
                    (norms[q] * norms[o]);
      top.Offer(cosine, series[o].household_id);
    }
    SimilarityResult result;
    result.household_id = series[q].household_id;
    const auto sorted = top.Sorted();
    result.matches.reserve(sorted.size());
    for (const auto& entry : sorted) {
      result.matches.push_back({entry.id, entry.score});
    }
    results.push_back(std::move(result));
  }
  return results;
}

/// Seeded rows plus the inputs that stress the cosine path: an all-zero
/// row (zero norm), a duplicate of row 0 (tied cosines, broken by id),
/// and rows carrying NaN, +inf and -inf readings.
std::vector<std::vector<double>> OracleSeriesSet(size_t n, size_t length,
                                                 uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(length));
  for (auto& row : rows) {
    for (double& v : row) v = rng.Uniform(-1.0, 3.0);
  }
  if (n >= 3) std::fill(rows[1].begin(), rows[1].end(), 0.0);
  if (n >= 4) rows[3] = rows[0];
  if (n >= 6) rows[5][length / 2] = std::numeric_limits<double>::quiet_NaN();
  if (n >= 8) {
    rows[7][0] = kInf;
    rows[7][length - 1] = -kInf;
  }
  if (n >= 9) rows[8][length / 3] = kInf;
  return rows;
}

void ExpectSameResults(const std::vector<SimilarityResult>& got,
                       const std::vector<SimilarityResult>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].household_id, want[i].household_id) << where;
    ASSERT_EQ(got[i].matches.size(), want[i].matches.size()) << where;
    for (size_t j = 0; j < got[i].matches.size(); ++j) {
      const double g = got[i].matches[j].cosine;
      const double w = want[i].matches[j].cosine;
      EXPECT_EQ(got[i].matches[j].household_id,
                want[i].matches[j].household_id)
          << where << " query " << i << " match " << j;
      EXPECT_TRUE(SameBits(g, w) || (std::isnan(g) && std::isnan(w)))
          << where << " query " << i << " match " << j << ": " << g
          << " vs " << w;
    }
  }
}

TEST(SimilarityOracleTest, BlockedKernelMatchesPerPairLoop) {
  uint64_t seed = 300;
  for (const size_t n : {2, 3, 5, 8, 9, 17, 64}) {
    for (const size_t length : {1, 3, 4, 5, 511, 513, 1029, 8760}) {
      const std::vector<std::vector<double>> rows =
          OracleSeriesSet(n, length, ++seed);
      std::vector<SeriesView> views;
      for (size_t i = 0; i < n; ++i) {
        views.push_back({static_cast<int64_t>(1000 - 7 * i), rows[i]});
      }
      const std::vector<double> norms = ComputeNorms(views);
      // Every range for small n; for larger n, whole, single-row and
      // block-straddling ranges.
      std::vector<std::pair<size_t, size_t>> ranges;
      if (n <= 9) {
        for (size_t b = 0; b < n; ++b) {
          for (size_t e = b + 1; e <= n; ++e) ranges.emplace_back(b, e);
        }
      } else {
        ranges = {{0, n},  {0, 1},      {3, 5},     {5, 16},
                  {9, 17}, {11, 12},    {n - 1, n}, {n - 3, n}};
        if (n > 40) ranges.emplace_back(5, 40);
      }
      for (const int k : {3, 10}) {
        SimilarityOptions options;
        options.k = k;
        for (const auto& [b, e] : ranges) {
          std::vector<SimilarityResult> want;
          {
            const simd::ScopedLevel scoped(simd::Level::kScalar);
            want = ReferenceSimilarityTopKRange(views, norms, b, e, options);
          }
          for (const simd::Level level :
               {simd::Level::kScalar, simd::DetectedLevel()}) {
            const simd::ScopedLevel scoped(level);
            auto got = ComputeSimilarityTopKRange(views, norms, b, e, options);
            ASSERT_TRUE(got.ok());
            ExpectSameResults(
                *got, want,
                std::string(simd::LevelName(level)) + " n=" +
                    std::to_string(n) + " length=" + std::to_string(length) +
                    " k=" + std::to_string(k) + " range=[" +
                    std::to_string(b) + "," + std::to_string(e) + ")");
          }
        }
      }
    }
  }
}

// Property sweep: the 3-line model recovers known thermal parameters
// across a grid of gradient / balance-point / noise configurations.
struct ThermalCase {
  double heat_g, heat_bal, cool_g, cool_bal, noise;
};

class ThreeLineRecoveryTest
    : public ::testing::TestWithParam<ThermalCase> {};

TEST_P(ThreeLineRecoveryTest, RecoversConfiguredThermalResponse) {
  const ThermalCase& tc = GetParam();
  const SyntheticConsumer c = MakeThermalConsumer(
      0.35, tc.heat_g, tc.heat_bal, tc.cool_g, tc.cool_bal, tc.noise,
      /*seed=*/static_cast<uint64_t>(tc.heat_g * 1000 + tc.cool_g * 100 +
                                     tc.noise * 10 + 3));
  auto result = ComputeThreeLine(c.consumption, c.temperature, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double tol = 0.02 + tc.noise / 2.0;
  EXPECT_NEAR(result->heating_gradient, tc.heat_g, tol);
  EXPECT_NEAR(result->cooling_gradient, tc.cool_g, tol);
  EXPECT_NEAR(result->base_load, 0.35, 0.1 + tc.noise);
}

INSTANTIATE_TEST_SUITE_P(
    ThermalGrid, ThreeLineRecoveryTest,
    ::testing::Values(ThermalCase{0.05, 12, 0.05, 20, 0.02},
                      ThermalCase{0.20, 10, 0.05, 22, 0.02},
                      ThermalCase{0.05, 14, 0.20, 18, 0.02},
                      ThermalCase{0.15, 12, 0.15, 20, 0.05},
                      ThermalCase{0.10, 8, 0.02, 24, 0.02},
                      ThermalCase{0.25, 13, 0.10, 19, 0.10},
                      ThermalCase{0.02, 12, 0.02, 20, 0.02},
                      ThermalCase{0.30, 11, 0.25, 21, 0.05}));

TEST(TaskTypesTest, NamesAreStable) {
  EXPECT_EQ(TaskName(TaskType::kHistogram), "histogram");
  EXPECT_EQ(TaskName(TaskType::kThreeLine), "3line");
  EXPECT_EQ(TaskName(TaskType::kPar), "par");
  EXPECT_EQ(TaskName(TaskType::kSimilarity), "similarity");
}

}  // namespace
}  // namespace smartmeter::core
