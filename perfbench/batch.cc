// The `batch` workload: System C with 2 engine threads. Each iteration is
// a cold Attach of the CSV into a fresh spool directory (parse, spool to
// the default column format, decode) followed by the four paper tasks
// run warm over the whole table. Parse, spool/decode and the three-line
// search do most of the work; no other workload touches them.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/string_util.h"
#include "core/histogram_task.h"
#include "core/par_task.h"
#include "core/similarity_task.h"
#include "core/three_line_task.h"
#include "engines/systemc_engine.h"
#include "storage/column_store.h"
#include "storage/csv.h"
#include "table/columnar_cache.h"
#include "table/data_source.h"
#include "table/table_reader.h"

namespace smbench {
namespace {

namespace fs = std::filesystem;
using smartmeter::StringPrintf;
using smartmeter::engines::SystemCEngine;
using smartmeter::table::ColumnarCache;
using smartmeter::table::DataSource;

constexpr int kEngineThreads = 2;
/// The traced load replay (parse + encode + decode) must land within this
/// share of the traced Attach median, and the three-line phases within
/// kPhaseTolerance of the kernel they break down.
constexpr double kLoadTolerance = 0.35;
constexpr double kPhaseTolerance = 0.10;

/// Samples of one measurement window.
struct BatchSamples {
  std::vector<double> load;
  std::vector<double> round;
  /// Cold load plus the four tasks: CSV in, all four answers out.
  std::vector<double> answer;
  std::vector<double> task[4];
  int64_t tasks_stolen = 0;
  int64_t tasks_completed = 0;
  int64_t task_runs = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

double Elapsed(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Runs load + four-task iterations until `budget` seconds have passed
/// (at least one). Spans are recorded when the run is traced and
/// `traced` is set.
void RunWindow(RunContext& run, const DataSource& source,
               const Reference& ref, double budget, bool traced,
               uint64_t* next_request, BatchSamples* out) {
  SpanRecorder disabled(false);
  SpanRecorder& spans = traced ? run.spans() : disabled;
  const Clock::time_point start = Clock::now();
  do {
    const uint64_t request = (*next_request)++;
    const std::string spool =
        FreshDir(run, StringPrintf("spool-%llu", (unsigned long long)request));
    ScopedSpan cycle(&spans, "batch.cycle", "harness", -1, request);
    auto engine = std::make_unique<SystemCEngine>(spool);
    engine->SetThreads(kEngineThreads);

    const int64_t hits0 = CounterValue("table.cache.hits");
    const int64_t misses0 = CounterValue("table.cache.misses");
    const Clock::time_point load_start = Clock::now();
    auto attached = engine->Attach(source);
    const Clock::time_point load_end = Clock::now();
    spans.Add("engines.SystemCEngine.Attach", "engines", load_start, load_end,
              cycle.id(), request);
    const int64_t hits = CounterValue("table.cache.hits") - hits0;
    const int64_t misses = CounterValue("table.cache.misses") - misses0;
    out->cache_hits += hits;
    out->cache_misses += misses;
    if (!attached.ok()) {
      run.CountOps("load", 1, 1);
      run.Note("  load failed: " + attached.status().ToString());
    } else if (misses != 1 || hits != 0) {
      // A load that hit the cache is not cold: an error, not a timing.
      run.CountOps("load", 1, 1);
      run.Violation("cold load",
                    StringPrintf("table.cache.misses rose by %lld and "
                                 "table.cache.hits by %lld (want 1 and 0)",
                                 (long long)misses, (long long)hits));
    } else {
      run.CountOps("load", 1, 0);
      out->load.push_back(SecondsBetween(load_start, load_end));
    }

    const bool cold_ok = attached.ok() && misses == 1 && hits == 0;
    if (attached.ok() && engine->WarmUp().ok()) {
      double round = 0.0;
      bool round_ok = true;
      for (const core::TaskType task : core::kAllTasks) {
        const engines::TaskOptions options =
            engines::TaskOptions::Default(task);
        engines::TaskResultSet results;
        const int64_t stolen0 = CounterValue("threadpool.tasks_stolen");
        const int64_t completed0 = CounterValue("threadpool.tasks_completed");
        const Clock::time_point t0 = Clock::now();
        auto metrics = engine->RunTask(options, &results);
        const Clock::time_point t1 = Clock::now();
        spans.Add(std::string("engines.SystemCEngine.RunTask.") +
                      std::string(core::TaskName(task)),
                  "engines", t0, t1, cycle.id(), request);
        out->tasks_stolen += CounterValue("threadpool.tasks_stolen") - stolen0;
        out->tasks_completed +=
            CounterValue("threadpool.tasks_completed") - completed0;
        ++out->task_runs;
        if (!metrics.ok()) {
          run.CountOps("task", 1, 1);
          run.Note("  task failed: " + metrics.status().ToString());
          round_ok = false;
          continue;
        }
        const std::string diff = CompareResults(results, ref, task);
        if (!diff.empty()) {
          run.CountOps("task", 1, 1);
          run.Violation(std::string("batch ") +
                            std::string(core::TaskName(task)) +
                            " equals the core-kernel reference",
                        diff);
          round_ok = false;
          continue;
        }
        run.CountOps("task", 1, 0);
        const double seconds = SecondsBetween(t0, t1);
        out->task[static_cast<int>(task)].push_back(seconds);
        round += seconds;
      }
      if (round_ok) {
        out->round.push_back(round);
        if (cold_ok) {
          out->answer.push_back(SecondsBetween(load_start, load_end) + round);
        }
      }
    }
    engine.reset();
    std::error_code ec;
    fs::remove_all(spool, ec);
  } while (Elapsed(start) < budget);
}

/// Median seconds of `reps` calls of `fn` (which returns false on error).
template <typename Fn>
double MedianSeconds(int reps, Fn fn, bool* ok) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (!fn()) *ok = false;
    samples.push_back(Elapsed(t0));
  }
  return Median(samples);
}

/// The traced run's layer replays: the public calls Attach is made of,
/// each kernel on one thread over the resident batch, and the engine's
/// plan overhead on top of them.
void ReplayLayers(RunContext& run, const DataSource& source,
                  const BatchSamples& traced) {
  SpanRecorder& spans = run.spans();
  bool ok = true;
  const uint64_t request = 0;  // Replays share one synthetic request.

  // storage: CSV parse.
  const int64_t rows0 = CounterValue("csv.rows_scanned");
  Clock::time_point t0 = Clock::now();
  auto parsed = smartmeter::table::ReadDatasetFromSource(source);
  Clock::time_point t1 = Clock::now();
  spans.Add("table.ReadDatasetFromSource", "storage", t0, t1, -1, request);
  const double parse_s = SecondsBetween(t0, t1);
  const int64_t rows = CounterValue("csv.rows_scanned") - rows0;
  if (!parsed.ok()) {
    run.Violation("layer replay", "parse: " + parsed.status().ToString());
    return;
  }
  run.Layer("storage.csv_parse_s", parse_s, "s",
            "table::ReadDatasetFromSource of the CSV");
  run.Layer("storage.csv_rows", static_cast<double>(rows), "count",
            "csv.rows_scanned delta of one parse");

  // storage: encode at the default spool format.
  const std::string dir = FreshDir(run, "replay");
  const std::string path = dir + "/replay.smcol";
  const bool v1 =
      ColumnarCache::Options::DefaultFormat() == ColumnarCache::Format::kV1;
  t0 = Clock::now();
  const smartmeter::Status written =
      v1 ? smartmeter::storage::ColumnStore::WriteFile(*parsed, path)
         : smartmeter::storage::ColumnFileWriter::WriteFile(*parsed, path);
  t1 = Clock::now();
  spans.Add(v1 ? "storage.ColumnStore.WriteFile"
               : "storage.ColumnFileWriter.WriteFile",
            "storage", t0, t1, -1, request);
  if (!written.ok()) {
    run.Violation("layer replay", "encode: " + written.ToString());
    return;
  }
  const double encode_s = SecondsBetween(t0, t1);
  std::error_code ec;
  const double file_bytes = static_cast<double>(fs::file_size(path, ec));
  run.Layer("storage.encode_s", encode_s, "s",
            v1 ? "ColumnStore::WriteFile (SMCOLV1)"
               : "ColumnFileWriter::WriteFile (SMCOLV2)");
  run.Layer("storage.spool_bytes_per_reading",
            file_bytes / (static_cast<double>(kHouseholds) * kHours), "bytes");

  // table: decode (open the spooled file).
  std::vector<double> decode;
  std::unique_ptr<smartmeter::table::ColumnFileReader> reader;
  for (int i = 0; i < 3; ++i) {
    reader = std::make_unique<smartmeter::table::ColumnFileReader>(path);
    t0 = Clock::now();
    const smartmeter::Status opened = reader->Open();
    t1 = Clock::now();
    spans.Add("table.ColumnFileReader.Open", "table", t0, t1, -1, request);
    if (!opened.ok()) {
      run.Violation("layer replay", "decode: " + opened.ToString());
      return;
    }
    decode.push_back(SecondsBetween(t0, t1));
  }
  const double decode_s = Median(decode);
  run.Layer("table.decode_s", decode_s, "s",
            "ColumnFileReader::Open of the spooled file, median of 3");

  const double traced_load = Median(traced.load);
  const double accounted = (parse_s + encode_s + decode_s) / traced_load;
  run.Note(StringPrintf(
      "  trace check: parse %.4f + encode %.4f + decode %.4f s = %.3f of the "
      "traced Attach median %.4f s (tolerance +/-%.2f)",
      parse_s, encode_s, decode_s, accounted, traced_load, kLoadTolerance));
  run.Layer("trace.accounted_share", accounted, "ratio",
            "load layers (parse + encode + decode) over the traced load_s");
  if (std::fabs(accounted - 1.0) > kLoadTolerance) {
    run.Violation("trace accounting",
                  StringPrintf("load layers account for %.3f of load_s, "
                               "outside 1 +/- %.2f",
                               accounted, kLoadTolerance));
  }

  // core: each kernel on one thread over the resident batch.
  auto batch = reader->NewBatch();
  if (!batch.ok()) {
    run.Violation("layer replay", "batch: " + batch.status().ToString());
    return;
  }
  const size_t n = batch->count();
  double kernel[4] = {0, 0, 0, 0};
  const int reps[4] = {5, 1, 3, 1};
  {
    std::vector<core::HistogramResult> out(n);
    kernel[0] = MedianSeconds(reps[0], [&] {
      ScopedSpan s(&spans, "core.ComputeHistogramRange", "core", -1, request);
      return core::ComputeHistogramRange(*batch, 0, n, {}, nullptr, out).ok();
    }, &ok);
  }
  core::ThreeLinePhases phases;
  {
    std::vector<core::ThreeLineResult> out(n);
    kernel[1] = MedianSeconds(reps[1], [&] {
      ScopedSpan s(&spans, "core.ComputeThreeLineRange", "core", -1, request);
      phases = core::ThreeLinePhases();
      return core::ComputeThreeLineRange(*batch, 0, n, {}, &phases, nullptr,
                                         out)
          .ok();
    }, &ok);
  }
  {
    std::vector<core::DailyProfileResult> out(n);
    kernel[2] = MedianSeconds(reps[2], [&] {
      ScopedSpan s(&spans, "core.ComputeDailyProfileRange", "core", -1,
                   request);
      return core::ComputeDailyProfileRange(*batch, 0, n, {}, nullptr, out)
          .ok();
    }, &ok);
  }
  {
    kernel[3] = MedianSeconds(reps[3], [&] {
      ScopedSpan s(&spans, "core.ComputeSimilarityTopKRange", "core", -1,
                   request);
      const std::vector<core::SeriesView> views =
          core::BuildSeriesViews(*batch);
      const std::vector<double> norms = core::ComputeNorms(views);
      return core::ComputeSimilarityTopKRange(views, norms, 0, n, {}).ok();
    }, &ok);
  }
  run.Layer("core.histogram_s", kernel[0], "s",
            "ComputeHistogramRange, 1 thread, median of 5");
  run.Layer("core.par_s", kernel[2], "s",
            "ComputeDailyProfileRange, 1 thread, median of 3");
  run.Layer("core.similarity_s", kernel[3], "s",
            "ComputeSimilarityTopKRange incl. views and norms, 1 thread");
  run.Layer("core.threeline.quantile_s", phases.quantile_seconds, "s",
            "T1 of ComputeThreeLineRange, 1 thread");
  run.Layer("core.threeline.regression_s", phases.regression_seconds, "s",
            "T2");
  run.Layer("core.threeline.adjust_s", phases.adjust_seconds, "s", "T3");
  run.Layer("core.threeline.band_points",
            static_cast<double>(phases.band_points), "count");
  const double phase_sum = phases.quantile_seconds +
                           phases.regression_seconds + phases.adjust_seconds;
  const double phase_share = phase_sum / kernel[1];
  run.Note(StringPrintf(
      "  trace check: three-line phases T1+T2+T3 = %.4f s = %.3f of the "
      "1-thread kernel %.4f s (tolerance +/-%.2f)",
      phase_sum, phase_share, kernel[1], kPhaseTolerance));
  if (std::fabs(phase_share - 1.0) > kPhaseTolerance) {
    run.Violation("trace accounting",
                  StringPrintf("three-line phases account for %.3f of the "
                               "kernel, outside 1 +/- %.2f",
                               phase_share, kPhaseTolerance));
  }

  // engines + exec: the engine's RunTask at 1 thread minus the kernel.
  auto column_source = DataSource::ColumnFile(path);
  SystemCEngine engine(FreshDir(run, "replay-spool"));
  engine.SetThreads(1);
  if (!column_source.ok() || !engine.Attach(*column_source).ok() ||
      !engine.WarmUp().ok()) {
    run.Violation("layer replay", "cannot attach the spooled column file");
    return;
  }
  double overhead = 0.0;
  for (const core::TaskType task : core::kAllTasks) {
    const int i = static_cast<int>(task);
    const double engine_s = MedianSeconds(reps[i], [&] {
      ScopedSpan s(&spans,
                   std::string("engines.SystemCEngine.RunTask.1thread.") +
                       std::string(core::TaskName(task)),
                   "engines", -1, request);
      engines::TaskResultSet results;
      return engine.RunTask(engines::TaskOptions::Default(task), &results)
          .ok();
    }, &ok);
    overhead += engine_s - kernel[i];
  }
  run.Layer("exec.plan_overhead_s", overhead, "s",
            "sum over the four tasks of engine RunTask minus the direct "
            "kernel, both 1 thread");
  if (!ok) run.Violation("layer replay", "a replayed call failed");
  fs::remove_all(dir, ec);

  const double runs =
      static_cast<double>(std::max<int64_t>(1, traced.task_runs));
  run.Layer("exec.threadpool.tasks_stolen",
            static_cast<double>(traced.tasks_stolen) / runs, "count",
            "threadpool.tasks_stolen delta per task run (2 threads)");
  run.Layer("exec.threadpool.tasks_completed",
            static_cast<double>(traced.tasks_completed) / runs, "count",
            "threadpool.tasks_completed delta per task run");
  const double loads =
      static_cast<double>(std::max<size_t>(1, traced.load.size()));
  run.Layer("table.cache_hits", static_cast<double>(traced.cache_hits) / loads,
            "count", "per cold load (must be 0)");
  run.Layer("table.cache_misses",
            static_cast<double>(traced.cache_misses) / loads, "count",
            "per cold load (must be 1)");
}

}  // namespace

int RunBatch(RunContext& run) {
  const Args& args = run.args();
  std::vector<double> setup;
  std::vector<double> generate;
  MeterDataset data;
  std::string csv;
  for (int i = 0; i < kSetups; ++i) {
    const std::string previous = csv;
    const Clock::time_point t0 = Clock::now();
    auto generated = GenerateDataset(args.seed);
    const Clock::time_point t1 = Clock::now();
    if (!generated.ok()) {
      std::fprintf(stderr, "datagen: %s\n",
                   generated.status().ToString().c_str());
      return 2;
    }
    csv = FreshDir(run, StringPrintf("data-%d", i)) + "/readings.csv";
    if (auto st = smartmeter::storage::WriteReadingsCsv(*generated, csv);
        !st.ok()) {
      std::fprintf(stderr, "write csv: %s\n", st.ToString().c_str());
      return 2;
    }
    setup.push_back(Elapsed(t0));
    generate.push_back(SecondsBetween(t0, t1));
    data = std::move(*generated);
    std::error_code ec;
    if (!previous.empty()) fs::remove_all(fs::path(previous).parent_path(), ec);
  }
  auto source = DataSource::SingleCsv(csv);
  if (!source.ok()) {
    std::fprintf(stderr, "source: %s\n", source.status().ToString().c_str());
    return 2;
  }

  const Clock::time_point ref_start = Clock::now();
  auto ref = ComputeReference(
      data, std::vector<core::TaskType>(std::begin(core::kAllTasks),
                                        std::end(core::kAllTasks)),
      /*threads=*/4);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref.status().ToString().c_str());
    return 2;
  }
  run.Info("reference_s", Elapsed(ref_start), "s",
           "core-kernel reference on 4 threads, excluded from setup_s");
  run.Note("  note: the CSV is read back from the OS page cache, so load_s "
           "is a sandbox number, not a storage-device number");

  uint64_t next_request = 1;
  BatchSamples untraced;
  BatchSamples traced;
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  RunWindow(run, *source, *ref, window, /*traced=*/false, &next_request,
            &untraced);
  if (args.trace) {
    RunWindow(run, *source, *ref, window, /*traced=*/true, &next_request,
              &traced);
  }

  const Summary setup_summary = Summarize(setup);
  run.EndToEnd("setup_s", setup_summary.median, "s",
               "datagen + CSV write; " + FormatSummary(setup_summary, "s"));
  const Summary answer = Summarize(untraced.answer);
  run.EndToEnd("data_to_answer_s", answer.median, "s",
               "cold Attach of the CSV + the four tasks: CSV in, all four "
               "answers out; " +
                   FormatSummary(answer, "s"));
  run.Info("data_to_answer_p99_s", answer.tail.value, "s",
               "tail of data_to_answer_s");
  const Summary load = Summarize(untraced.load);
  run.Info("load_s", load.median, "s",
           "cold SystemCEngine::Attach of the CSV; " +
               FormatSummary(load, "s"));
  const Summary round = Summarize(untraced.round);
  run.Info("query_p50_s", round.median, "s",
           "one whole-table analysis = histogram + three-line + PAR + "
           "similarity; " +
               FormatSummary(round, "s"));
  run.Info("queries_per_s", 1.0 / round.median, "1/s",
           "analyses per second, one closed-loop client");
  const char* task_metric[4] = {"histogram_s", "threeline_s", "par_s",
                                "similarity_s"};
  for (int i = 0; i < 4; ++i) {
    const Summary s = Summarize(untraced.task[i]);
    run.Info(task_metric[i], s.median, "s",
             "warm whole-table task, 2 threads; " + FormatSummary(s, "s"));
  }

  if (args.trace) {
    run.Layer("datagen.generate_s", Median(generate), "s",
              "DataGenerator seed + Train + Generate, median of set-ups");
    const double u = Median(untraced.round);
    const double t = Median(traced.round);
    run.Layer("trace.overhead_share", (t - u) / u, "ratio",
              StringPrintf("traced vs untraced analysis median: %.4f vs %.4f "
                           "s",
                           t, u));
    ReplayLayers(run, *source, traced);
  }
  return 0;
}

}  // namespace smbench
