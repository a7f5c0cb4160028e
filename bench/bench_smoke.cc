// CI smoke benchmark: one tiny histogram run per engine, emitting the
// observability JSON report and gating on a committed baseline.
//
// Flags (on top of the common bench flags):
//   --baseline=<path>   BENCH_baseline.json to compare against (skip
//                       the gate when empty)
//   --tolerance=<f>     allowed relative task_seconds regression
//                       (default 0.30, i.e. fail when 30% slower)
//
// Typical CI invocation:
//   bench_smoke --hours=240 --report=bench_report.json
//       --baseline=../bench/BENCH_baseline.json
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engines/benchmark_runner.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "simd/simd.h"
#include "storage/column_store.h"
#include "storage/scan_scope.h"
#include "table/columnar_cache.h"
#include "table/table_reader.h"
#include "timeseries/calendar.h"

namespace smartmeter::bench {
namespace {

struct SmokeCase {
  engines::EngineKind kind;
  /// Matlab's single-CSV ingest is quadratic in file size, so the smoke
  /// run feeds it the partitioned layout; everything else reads the
  /// single CSV.
  bool partitioned;
};

int RunSmoke(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/400.0);
  const std::string baseline_path = ctx.flags().GetString("baseline", "");
  const double tolerance = ctx.flags().GetDouble("tolerance", 0.30);
  const int households = 12;

  const std::vector<SmokeCase> cases = {
      {engines::EngineKind::kSystemC, false},
      {engines::EngineKind::kMatlab, true},
      {engines::EngineKind::kMadlib, false},
      {engines::EngineKind::kSpark, false},
      {engines::EngineKind::kHive, false},
  };

  PrintHeader("bench_smoke",
              "one tiny histogram run per engine; gates CI on the "
              "committed baseline");
  PrintRow({"engine", "layout", "load s", "task s", "simulated"});
  PrintDivider(5);

  for (const SmokeCase& c : cases) {
    engines::RunSpec spec;
    spec.kind = c.kind;
    spec.factory.spool_dir = ctx.SpoolDir("smoke");
    spec.factory.cluster.num_nodes = 4;
    spec.factory.cluster.slots_per_node = 2;
    spec.options = engines::TaskOptions::Default(core::TaskType::kHistogram);
    spec.threads = 2;
    spec.report = &ctx.report();
    auto source = c.partitioned ? ctx.PartitionedDir(households)
                                : ctx.SingleCsv(households);
    if (!source.ok()) {
      std::fprintf(stderr, "data materialization failed: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }
    spec.source = *source;
    auto run = engines::RunBenchmark(spec);
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   std::string(engines::EngineKindName(c.kind)).c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    PrintRow({std::string(engines::EngineKindName(c.kind)),
              c.partitioned ? "partitioned" : "single-csv",
              Cell(run->attach_seconds), Cell(run->task_seconds),
              run->simulated ? "yes" : "no"});

    // Plan-IR gate: every engine run must surface per-stage timing rows
    // that account for the task time (wall-clock rows tolerate scheduler
    // glue; simulated rows are exact, so the slack only admits noise).
    if (run->stages.empty()) {
      std::fprintf(stderr, "STAGE GATE %s: run report has no plan stages\n",
                   std::string(engines::EngineKindName(c.kind)).c_str());
      return 1;
    }
    double stage_sum = 0.0;
    for (const exec::StageTiming& stage : run->stages) {
      stage_sum += stage.seconds;
    }
    const double slack = 0.30 * run->task_seconds + 0.05;
    if (stage_sum < run->task_seconds - slack ||
        stage_sum > run->task_seconds + slack) {
      std::fprintf(stderr,
                   "STAGE GATE %s: stage seconds %.6f do not account for "
                   "task seconds %.6f (slack %.6f)\n",
                   std::string(engines::EngineKindName(c.kind)).c_str(),
                   stage_sum, run->task_seconds, slack);
      return 1;
    }
  }

  // Data-plane gate: a warm scan of the columnar cache must beat a cold
  // CSV parse of the same source (the shared Figure 6 cold→warm story).
  // Both runs land in the report so the counters and timings are
  // inspectable in CI artifacts.
  {
    auto source = ctx.SingleCsv(households);
    if (!source.ok()) {
      std::fprintf(stderr, "data materialization failed: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }
    // A spool left behind by an earlier run in the same --workdir would
    // turn the cold open into a cache hit, so the cold run gets an empty
    // spool directory and the cache counters prove which path ran.
    const std::string cache_dir = ctx.SpoolDir("smoke-cache");
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot clear cache spool %s: %s\n",
                   cache_dir.c_str(), ec.message().c_str());
      return 1;
    }
    table::ColumnarCache cache(cache_dir);
    obs::Counter* hits =
        obs::MetricsRegistry::Global().GetCounter("table.cache.hits");
    obs::Counter* misses =
        obs::MetricsRegistry::Global().GetCounter("table.cache.misses");

    const int64_t hits_before_cold = hits->Value();
    const int64_t misses_before_cold = misses->Value();
    Stopwatch cold_watch;
    auto cold = cache.OpenOrBuild(*source);  // Miss: parse + build + mmap.
    const double cold_seconds = cold_watch.ElapsedSeconds();
    if (!cold.ok()) {
      std::fprintf(stderr, "cache cold build failed: %s\n",
                   cold.status().ToString().c_str());
      return 1;
    }
    const int64_t cold_misses = misses->Value() - misses_before_cold;
    const int64_t cold_hits = hits->Value() - hits_before_cold;
    if (cold_misses != 1 || cold_hits != 0) {
      std::fprintf(stderr,
                   "DATA-PLANE GATE: cold open is not cold: "
                   "table.cache.misses rose by %lld and table.cache.hits "
                   "by %lld (want 1 and 0)\n",
                   static_cast<long long>(cold_misses),
                   static_cast<long long>(cold_hits));
      return 1;
    }

    const int64_t hits_before_warm = hits->Value();
    Stopwatch warm_watch;
    auto warm = cache.OpenOrBuild(*source);  // Hit: mmap only.
    auto warm_batch = warm.ok() ? (*warm)->NewBatch()
                                : Result<table::ColumnarBatch>(warm.status());
    const double warm_seconds = warm_watch.ElapsedSeconds();
    if (!warm_batch.ok()) {
      std::fprintf(stderr, "cache warm scan failed: %s\n",
                   warm_batch.status().ToString().c_str());
      return 1;
    }
    if (const int64_t warm_hits = hits->Value() - hits_before_warm;
        warm_hits != 1) {
      std::fprintf(stderr,
                   "DATA-PLANE GATE: warm open is not warm: "
                   "table.cache.hits rose by %lld (want 1)\n",
                   static_cast<long long>(warm_hits));
      return 1;
    }

    obs::RunRecord cold_run;
    cold_run.engine = "data-plane";
    cold_run.task = "cache-cold";
    cold_run.layout = "single-csv";
    cold_run.task_seconds = cold_seconds;
    ctx.report().AddRun(cold_run);
    obs::RunRecord warm_run;
    warm_run.engine = "data-plane";
    warm_run.task = "cache-warm";
    warm_run.layout = "single-csv";
    warm_run.warm = true;
    warm_run.task_seconds = warm_seconds;
    ctx.report().AddRun(warm_run);
    PrintRow({"data-plane", "cache cold/warm", Cell(cold_seconds),
              Cell(warm_seconds), "no"});

    if (warm_seconds >= cold_seconds) {
      std::fprintf(stderr,
                   "DATA-PLANE REGRESSION: warm cache scan (%.6fs) did not "
                   "beat cold CSV parse (%.6fs)\n",
                   warm_seconds, cold_seconds);
      return 1;
    }
  }

  // Pruned-scan gate: a single-household scoped scan over an SMCOLV2
  // rendering of the smoke dataset must decode strictly fewer blocks
  // than a full scan. The gate is block-count based, not timing based,
  // so scheduler noise on loaded CI hosts cannot flake it.
  {
    auto source = ctx.SingleCsv(households);
    if (!source.ok()) {
      std::fprintf(stderr, "data materialization failed: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }
    auto dataset = table::ReadDatasetFromSource(*source);
    if (!dataset.ok()) {
      std::fprintf(stderr, "smoke dataset parse failed: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    const std::string spool = ctx.SpoolDir("smoke-smcol");
    std::error_code ec;
    std::filesystem::create_directories(spool, ec);
    const std::string v2_path = spool + "/data.smcol";
    // Small blocks so even the smoke-sized table spans enough blocks for
    // pruning to be observable.
    if (Status st =
            storage::ColumnFileWriter::WriteFile(*dataset, v2_path,
                                                 /*block_values=*/256);
        !st.ok()) {
      std::fprintf(stderr, "SMCOLV2 write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    table::ColumnFileReader reader(v2_path);
    if (Status st = reader.Open(); !st.ok()) {
      std::fprintf(stderr, "SMCOLV2 open failed: %s\n", st.ToString().c_str());
      return 1;
    }
    storage::ScanScope scope;
    scope.row_begin = static_cast<size_t>(households) / 2;
    scope.row_count = 1;
    Stopwatch scoped_watch;
    auto scoped = reader.NewScopedBatch(scope);
    const double scoped_seconds = scoped_watch.ElapsedSeconds();
    if (!scoped.ok()) {
      std::fprintf(stderr, "scoped SMCOLV2 scan failed: %s\n",
                   scoped.status().ToString().c_str());
      return 1;
    }
    obs::RunRecord pruned_run;
    pruned_run.engine = "data-plane";
    pruned_run.task = "pruned-scan";
    pruned_run.layout = "smcolv2";
    pruned_run.task_seconds = scoped_seconds;
    pruned_run.bytes_scanned = scoped->stats.bytes_decoded;
    pruned_run.blocks_decoded = scoped->stats.blocks_decoded;
    pruned_run.blocks_pruned = scoped->stats.blocks_pruned;
    ctx.report().AddRun(pruned_run);
    PrintRow({"data-plane", "pruned scan", Cell(scoped_seconds),
              CellInt(scoped->stats.blocks_decoded),
              CellInt(scoped->stats.blocks_pruned)});
    if (scoped->stats.blocks_pruned <= 0 ||
        scoped->stats.blocks_decoded >= scoped->stats.blocks_total) {
      std::fprintf(stderr,
                   "PRUNED-SCAN GATE: scoped scan decoded %lld of %lld "
                   "blocks (pruned %lld); the block index did no work\n",
                   static_cast<long long>(scoped->stats.blocks_decoded),
                   static_cast<long long>(scoped->stats.blocks_total),
                   static_cast<long long>(scoped->stats.blocks_pruned));
      return 1;
    }
  }

  // SIMD gate: the dispatched kernels must beat their scalar twins when a
  // vector level is active. The 1.2x floor is deliberately below the
  // steady-state speedups (see EXPERIMENTS.md) so scheduler noise on
  // loaded CI hosts does not flake the job; on a scalar-only host (or an
  // SM_DISABLE_SIMD build) the gate is informational only.
  {
    const simd::Level level = simd::ActiveLevel();
    const size_t n = static_cast<size_t>(kHoursPerYear);
    Rng rng(41);
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(0.0, 5.0);
      y[i] = rng.Uniform(0.0, 5.0);
    }
    std::string text;
    for (int r = 0; r < 2048; ++r) {
      text += "12345,4821,1.2345,-12.50\n";
    }

    // Best-of-three timing of `reps` calls keeps the one-core CI host
    // from turning a single preemption into a gate failure.
    const auto time_best = [](int reps, const auto& body) {
      double best = 1e300;
      for (int trial = 0; trial < 3; ++trial) {
        Stopwatch watch;
        for (int i = 0; i < reps; ++i) body();
        best = std::min(best, watch.ElapsedSeconds());
      }
      return best;
    };

    struct Panel {
      const char* task;
      double vector_seconds;
      double scalar_seconds;
    };
    std::vector<Panel> panels;

    // Volatile sinks keep the optimizer from eliding the timed calls.
    volatile double sink = 0.0;
    const auto dot_body = [&] { sink = sink + simd::Dot(x, y); };
    std::vector<int64_t> counts(32);
    const auto hist_body = [&] {
      std::fill(counts.begin(), counts.end(), 0);
      simd::HistogramBin(x, 0.0, 5.0 / 32.0, counts);
      sink = sink + static_cast<double>(counts[0]);
    };
    const auto count_body = [&] {
      sink = sink + static_cast<double>(simd::CountByte(text, ','));
    };

    const auto run_panel = [&](const char* task, int reps,
                               const auto& body) {
      const double vec = time_best(reps, body);
      double scal = vec;
      {
        const simd::ScopedLevel guard(simd::Level::kScalar);
        scal = time_best(reps, body);
      }
      panels.push_back({task, vec, scal});
    };
    run_panel("simd-dot", 2000, dot_body);
    run_panel("simd-histogram", 2000, hist_body);
    run_panel("simd-count-byte", 2000, count_body);

    int fast_enough = 0;
    for (const Panel& p : panels) {
      const double speedup =
          p.vector_seconds > 0.0 ? p.scalar_seconds / p.vector_seconds : 1.0;
      if (speedup >= 1.2) ++fast_enough;
      obs::RunRecord rec;
      rec.engine = "simd";
      rec.task = p.task;
      rec.layout = std::string(simd::LevelName(level));
      rec.task_seconds = p.vector_seconds;
      ctx.report().AddRun(rec);
      PrintRow({"simd", p.task, Cell(p.scalar_seconds),
                Cell(p.vector_seconds),
                std::string(simd::LevelName(level))});
    }
    if (level != simd::Level::kScalar && fast_enough < 2) {
      std::fprintf(stderr,
                   "SIMD GATE: only %d of %zu kernels reached 1.2x over "
                   "scalar at level %s\n",
                   fast_enough, panels.size(),
                   std::string(simd::LevelName(level)).c_str());
      return 1;
    }
  }

  if (Status st = ctx.Finish(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  if (baseline_path.empty()) {
    std::printf("\nno --baseline given; skipping regression gate\n");
    return 0;
  }

  obs::BenchReport baseline;
  std::string error;
  if (!obs::BenchReport::ReadFile(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "cannot read baseline %s: %s\n",
                 baseline_path.c_str(), error.c_str());
    return 1;
  }

  int failures = 0;
  for (const obs::RunRecord& run : ctx.report().runs()) {
    const obs::RunRecord* base = nullptr;
    for (const obs::RunRecord& b : baseline.runs()) {
      if (b.engine == run.engine && b.task == run.task &&
          b.layout == run.layout) {
        base = &b;
        break;
      }
    }
    if (base == nullptr) {
      std::printf("no baseline for %s/%s/%s; skipping\n",
                  run.engine.c_str(), run.task.c_str(), run.layout.c_str());
      continue;
    }
    const double limit = base->task_seconds * (1.0 + tolerance);
    if (run.task_seconds > limit) {
      std::fprintf(stderr,
                   "REGRESSION %s/%s/%s: task %.3fs > limit %.3fs "
                   "(baseline %.3fs, tolerance %.0f%%)\n",
                   run.engine.c_str(), run.task.c_str(), run.layout.c_str(),
                   run.task_seconds, limit, base->task_seconds,
                   tolerance * 100.0);
      ++failures;
    } else {
      std::printf("ok %s/%s/%s: task %.3fs within limit %.3fs\n",
                  run.engine.c_str(), run.task.c_str(), run.layout.c_str(),
                  run.task_seconds, limit);
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "\n%d regression(s) vs %s\n", failures,
                 baseline_path.c_str());
    return 1;
  }
  std::printf("\nall engines within %.0f%% of baseline\n",
              tolerance * 100.0);
  return 0;
}

}  // namespace
}  // namespace smartmeter::bench

int main(int argc, char** argv) {
  return smartmeter::bench::RunSmoke(argc, argv);
}
