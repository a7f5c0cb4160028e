// Google-benchmark microbenchmarks of the statistical kernels every
// platform engine is built on. These are the operators the paper's Table
// 1 says System C lacks and the authors hand-wrote; regressions here move
// every figure.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <string>

#include "common/rng.h"
#include "core/histogram_task.h"
#include "simd/simd.h"
#include "core/par_task.h"
#include "core/similarity_task.h"
#include "core/three_line_task.h"
#include "datagen/temperature_model.h"
#include "stats/distance.h"
#include "stats/kmeans.h"
#include "stats/ols.h"
#include "stats/quantile.h"
#include "storage/btree.h"
#include "storage/csv.h"
#include "timeseries/calendar.h"

namespace {

using namespace smartmeter;  // NOLINT

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(0.0, 5.0);
  return v;
}

void BM_Quantile8760(benchmark::State& state) {
  const std::vector<double> v = RandomSeries(kHoursPerYear, 1);
  for (auto _ : state) {
    auto q = stats::Quantile(v, 0.9);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_Quantile8760);

void BM_EquiWidthHistogram8760(benchmark::State& state) {
  const std::vector<double> v = RandomSeries(kHoursPerYear, 2);
  for (auto _ : state) {
    auto hist = core::ComputeConsumptionHistogram(v);
    benchmark::DoNotOptimize(hist);
  }
}
BENCHMARK(BM_EquiWidthHistogram8760);

void BM_SimpleOls(benchmark::State& state) {
  const std::vector<double> x = RandomSeries(static_cast<size_t>(
                                                 state.range(0)),
                                             3);
  const std::vector<double> y = RandomSeries(static_cast<size_t>(
                                                 state.range(0)),
                                             4);
  for (auto _ : state) {
    auto fit = stats::FitLine(x, y);
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_SimpleOls)->Arg(100)->Arg(1000)->Arg(8760);

void BM_CosinePair8760(benchmark::State& state) {
  const std::vector<double> a = RandomSeries(kHoursPerYear, 5);
  const std::vector<double> b = RandomSeries(kHoursPerYear, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::CosineSimilarity(a, b));
  }
}
BENCHMARK(BM_CosinePair8760);

void BM_ThreeLineOneConsumer(benchmark::State& state) {
  const std::vector<double> temp =
      datagen::GenerateTemperatureSeries(kHoursPerYear);
  std::vector<double> consumption(kHoursPerYear);
  Rng rng(7);
  for (size_t t = 0; t < consumption.size(); ++t) {
    consumption[t] = 0.4 + 0.1 * std::max(0.0, 12.0 - temp[t]) +
                     0.05 * std::max(0.0, temp[t] - 20.0) +
                     rng.NextDouble() * 0.1;
  }
  for (auto _ : state) {
    auto fit = core::ComputeThreeLine(consumption, temp, 1);
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_ThreeLineOneConsumer);

void BM_ParOneConsumer(benchmark::State& state) {
  const std::vector<double> temp =
      datagen::GenerateTemperatureSeries(kHoursPerYear);
  const std::vector<double> consumption = RandomSeries(kHoursPerYear, 8);
  for (auto _ : state) {
    auto profile = core::ComputeDailyProfile(consumption, temp, 1);
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_ParOneConsumer);

void BM_KMeansProfiles(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::vector<double>> profiles;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> p(24);
    for (double& x : p) x = rng.Uniform(0, 2);
    profiles.push_back(std::move(p));
  }
  for (auto _ : state) {
    auto result = stats::KMeans(profiles, 8);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeansProfiles);

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    storage::BPlusTree tree;
    Rng rng(10);
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(
          tree.Insert(static_cast<int64_t>(rng.NextUint64() >> 16),
                      static_cast<uint64_t>(i)));
    }
  }
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(100000);

void BM_BTreeLookup(benchmark::State& state) {
  storage::BPlusTree tree;
  for (int64_t i = 0; i < 100000; ++i) {
    (void)tree.Insert(i * 3, static_cast<uint64_t>(i));
  }
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(static_cast<int64_t>(rng.UniformInt(300000))));
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_ParseReadingRow(benchmark::State& state) {
  const std::string line = "12345,4821,1.2345,-12.50";
  for (auto _ : state) {
    auto row = storage::ParseReadingRow(line);
    benchmark::DoNotOptimize(row);
  }
}
BENCHMARK(BM_ParseReadingRow);

void BM_TopKSimilarity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::vector<double>> series;
  for (int i = 0; i < n; ++i) {
    series.push_back(RandomSeries(kHoursPerYear, 100 + i));
  }
  std::vector<core::SeriesView> views;
  for (int i = 0; i < n; ++i) views.push_back({i, series[i]});
  for (auto _ : state) {
    auto result = core::ComputeSimilarityTopK(views);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(n);
}
// 400 x 8760 is the batch workload's similarity input (400 households,
// a year of hourly readings); its candidate rows (28 MB) outgrow L2.
BENCHMARK(BM_TopKSimilarity)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNSquared);

// ---------------------------------------------------------------------------
// Vector-vs-scalar panels for the SIMD layer. Each kernel appears twice:
// the dispatched (widest available) path and the same call pinned to the
// scalar backend via ScopedLevel, so `--benchmark_filter=Simd` prints the
// speedup table that EXPERIMENTS.md quotes. On a scalar-only host or an
// SM_DISABLE_SIMD build both rows measure the same code.
// ---------------------------------------------------------------------------

simd::Level PanelLevel(int64_t scalar) {
  return scalar != 0 ? simd::Level::kScalar : simd::DetectedLevel();
}

void BM_SimdDot8760(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  const std::vector<double> x = RandomSeries(kHoursPerYear, 21);
  const std::vector<double> y = RandomSeries(kHoursPerYear, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Dot(x, y));
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_SimdDot8760)->Arg(0)->Arg(1);

// One similarity query block: 8 query rows against 400 candidate rows of
// a year each, the tiled kernel vs the per-pair scalar loop.
void BM_SimdDotBlock8x400(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  std::vector<std::vector<double>> series;
  std::vector<const double*> rows;
  for (int i = 0; i < 400; ++i) {
    series.push_back(RandomSeries(kHoursPerYear, 500 + i));
    rows.push_back(series.back().data());
  }
  const std::span<const double* const> queries(rows.data(), 8);
  std::vector<double> out(8 * rows.size());
  for (auto _ : state) {
    simd::DotBlock(queries, rows, kHoursPerYear, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_SimdDotBlock8x400)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SimdHistogramBin8760(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  const std::vector<double> v = RandomSeries(kHoursPerYear, 23);
  std::vector<int64_t> counts(32);
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    simd::HistogramBin(v, 0.0, 5.0 / 32.0, counts);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_SimdHistogramBin8760)->Arg(0)->Arg(1);

void BM_SimdSelectBands8760(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  const std::vector<double> values = RandomSeries(kHoursPerYear, 24);
  const std::vector<double> temps = RandomSeries(kHoursPerYear, 25);
  std::vector<int32_t> bins(kHoursPerYear);
  simd::BinIndicesInt32(temps, 0.25, bins);
  // 20 dense bins covering [0, 5): thresholds bracketing the middle of
  // the uniform consumption range, so both bands stay busy.
  std::vector<double> lo_table(20, 2.0);
  std::vector<double> hi_table(20, 3.0);
  std::vector<int32_t> lo_idx;
  std::vector<int32_t> hi_idx;
  for (auto _ : state) {
    lo_idx.clear();
    hi_idx.clear();
    simd::SelectBands(values, bins, 0, lo_table, hi_table, &lo_idx, &hi_idx);
    benchmark::DoNotOptimize(lo_idx.data());
    benchmark::DoNotOptimize(hi_idx.data());
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_SimdSelectBands8760)->Arg(0)->Arg(1);

void BM_SimdAddResidualYear(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  const std::vector<double> c = RandomSeries(kHoursPerYear, 26);
  const std::vector<double> t = RandomSeries(kHoursPerYear, 27);
  const std::vector<double> beta = RandomSeries(kHoursPerDay, 28);
  std::vector<double> acc(kHoursPerDay, 0.0);
  const std::span<const double> cs(c);
  const std::span<const double> ts(t);
  for (auto _ : state) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int day = 0; day < kDaysPerYear; ++day) {
      const size_t t0 = static_cast<size_t>(day) * kHoursPerDay;
      simd::AddResidual(acc, cs.subspan(t0, kHoursPerDay),
                        ts.subspan(t0, kHoursPerDay), beta);
    }
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_SimdAddResidualYear)->Arg(0)->Arg(1);

// The 3-line breakpoint search over one band of ~900 points (the size
// of one household's 10%-band on a year of hourly readings): every
// (i, j) split scored, 4 candidate j per AVX2 vector, 2 per NEON.
void BM_ThreeSegmentSearch(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  Rng rng(31);
  std::vector<core::internal::BandPoint> band(900);
  for (core::internal::BandPoint& p : band) {
    p.temperature = rng.Uniform(-10.0, 35.0);
    p.value = 0.4 + 0.15 * std::max(0.0, 12.0 - p.temperature) +
              0.1 * std::max(0.0, p.temperature - 20.0) +
              0.3 * rng.NextDouble();
  }
  std::sort(band.begin(), band.end());
  for (auto _ : state) {
    auto fit = core::internal::FitThreeSegments(band, 2);
    benchmark::DoNotOptimize(fit);
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_ThreeSegmentSearch)->Arg(0)->Arg(1);

std::string RandomCsvChunk(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (size_t r = 0; r < rows; ++r) {
    text += std::to_string(rng.UniformInt(100000));
    text += ',';
    text += std::to_string(rng.UniformInt(8760));
    text += ',';
    text += std::to_string(rng.Uniform(0.0, 5.0));
    text += ',';
    text += std::to_string(rng.Uniform(-20.0, 35.0));
    text += '\n';
  }
  return text;
}

void BM_SimdFindNewlines64K(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  const std::string chunk = RandomCsvChunk(2048, 29);
  for (auto _ : state) {
    size_t lines = 0;
    size_t pos = 0;
    while (pos < chunk.size()) {
      const size_t nl = simd::FindByte(chunk, pos, '\n');
      if (nl == std::string::npos) break;
      ++lines;
      pos = nl + 1;
    }
    benchmark::DoNotOptimize(lines);
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_SimdFindNewlines64K)->Arg(0)->Arg(1);

void BM_SimdCountByte64K(benchmark::State& state) {
  const simd::ScopedLevel guard(PanelLevel(state.range(0)));
  const std::string chunk = RandomCsvChunk(2048, 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::CountByte(chunk, ','));
  }
  state.SetLabel(std::string(simd::LevelName(simd::ActiveLevel())));
}
BENCHMARK(BM_SimdCountByte64K)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
