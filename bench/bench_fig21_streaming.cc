// Real-time ingest benchmark (the lambda path): sustained append rates
// through StreamProcessor -> DeltaStore while concurrent routed queries
// run over merged base+delta snapshots, versus the same queries with no
// ingest running.
//
// Three panels:
//   1. No-ingest baseline: routed single-household histogram queries
//      over the attached base, for the query-latency reference.
//   2. Ingest-rate sweep: the same query load while readings stream in
//      at 1x / 4x / 16x the base rate. Reports accepted ingest rate,
//      freshness (reading-to-queryable lag, sampled by the snapshot
//      thread) p50/p99, and query p50/p99.
//   3. Marker visibility: one marker reading appended after the sweep
//      must become visible to a routed query within the freshness
//      bound (end-to-end proof the lambda merge is live).
//
// Flags (on top of the common bench flags):
//   --households=<n>      households in the table (default 240)
//   --base-days=<n>       immutable base size in days (default 30)
//   --ingest-hours=<n>    hours streamed live per rate config (default 24)
//   --rate=<r>            base ingest rate in readings/s (default 1000;
//                         the sweep runs r, 4r, 16r)
//   --snapshot-ms=<ms>    snapshot cadence (default 25)
//   --query-threads=<n>   concurrent query clients (default 2)
//   --freshness-limit-ms=<ms>  gate bound on freshness p99 (default 1000)
//   --gate                enforce the acceptance gates (freshness p99
//                         bounded, query p99 within 20% + 20ms of the
//                         no-ingest baseline, marker visible) and exit
//                         nonzero on failure
//
// Typical invocations:
//   bench_fig21_streaming
//   bench_fig21_streaming --households=64 --base-days=10 --gate
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engines/engine_util.h"
#include "exec/query_context.h"
#include "obs/report.h"
#include "storage/scan_scope.h"
#include "streaming/alert_log.h"
#include "streaming/detectors.h"
#include "streaming/stream_processor.h"
#include "table/columnar_batch.h"
#include "table/delta_store.h"

namespace smartmeter::bench {
namespace {

constexpr double kQueryP99RegressionFactor = 1.2;
constexpr double kQueryP99SlackSeconds = 0.020;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5));
  return values[index];
}

/// Latency percentiles of one query panel.
struct QueryPanel {
  int64_t ok = 0;
  int64_t failed = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double qps = 0.0;
};

/// Shared reader refreshed by the snapshot thread, queried by clients.
struct SharedReader {
  explicit SharedReader(table::DeltaStore* store) : reader(store) {}
  std::mutex mu;
  table::DeltaTableReader reader;
};

/// One routed single-household histogram over the current snapshot.
/// Returns latency seconds, or < 0 on failure.
double RoutedQuery(SharedReader* shared, const engines::TaskOptions& task,
                   size_t row) {
  Stopwatch watch;
  Result<table::ScopedBatch> scoped = [&] {
    std::lock_guard<std::mutex> lock(shared->mu);
    storage::ScanScope scope;
    scope.row_begin = row;
    scope.row_count = 1;
    return shared->reader.NewScopedBatch(scope);
  }();
  if (!scoped.ok()) return -1.0;
  engines::TaskResultSet results;
  auto metrics =
      engines::RunTaskOverBatch(exec::QueryContext::Background(),
                                scoped->batch, task, /*num_threads=*/1,
                                &results);
  if (!metrics.ok()) return -1.0;
  return watch.ElapsedSeconds();
}

/// Runs `threads` closed-loop query clients until `stop` flips, round-
/// robining the routed household.
QueryPanel RunQueryLoad(SharedReader* shared, const engines::TaskOptions& task,
                        size_t rows, int threads,
                        const std::atomic<bool>& stop) {
  std::mutex merge_mu;
  QueryPanel panel;
  std::vector<double> latencies;
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<double> local;
      int64_t ok = 0;
      int64_t failed = 0;
      size_t q = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const double latency = RoutedQuery(shared, task, q % rows);
        q += static_cast<size_t>(threads);
        if (latency < 0) {
          ++failed;
        } else {
          ++ok;
          local.push_back(latency);
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      panel.ok += ok;
      panel.failed += failed;
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_seconds = wall.ElapsedSeconds();
  panel.p50 = Percentile(latencies, 0.50);
  panel.p99 = Percentile(latencies, 0.99);
  panel.qps = wall_seconds > 0
                  ? static_cast<double>(panel.ok) / wall_seconds
                  : 0.0;
  return panel;
}

obs::RunRecord LambdaRecord(int query_threads, double wall_seconds,
                            const QueryPanel& panel) {
  obs::RunRecord record;
  record.engine = "lambda";
  record.task = "routed-histogram";
  record.layout = "base+delta";
  record.threads = query_threads;
  record.warm = true;
  record.task_seconds = wall_seconds;
  record.outcome = "ok";
  record.clients = query_threads;
  record.queries_ok = panel.ok;
  record.p50_seconds = panel.p50;
  record.p99_seconds = panel.p99;
  record.queries_per_second = panel.qps;
  return record;
}

int Run(BenchContext& ctx) {
  const int households =
      static_cast<int>(ctx.flags().GetInt("households", 240));
  const int base_days = static_cast<int>(ctx.flags().GetInt("base-days", 30));
  const int ingest_hours =
      static_cast<int>(ctx.flags().GetInt("ingest-hours", 24));
  const double base_rate = ctx.flags().GetDouble("rate", 1000.0);
  const double snapshot_seconds =
      ctx.flags().GetDouble("snapshot-ms", 25.0) / 1e3;
  const int query_threads =
      static_cast<int>(ctx.flags().GetInt("query-threads", 2));
  const double freshness_limit =
      ctx.flags().GetDouble("freshness-limit-ms", 1000.0) / 1e3;
  const bool gate = ctx.flags().GetBool("gate", false);
  const size_t base_hours = static_cast<size_t>(base_days) * 24;

  auto dataset = ctx.GetDataset(households);
  if (!dataset.ok()) {
    std::fprintf(stderr, "data: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  if ((*dataset)->hours() <
      base_hours + static_cast<size_t>(ingest_hours) + 1) {
    std::fprintf(stderr, "need %zu dataset hours, have %zu\n",
                 base_hours + static_cast<size_t>(ingest_hours) + 1,
                 (*dataset)->hours());
    return 1;
  }
  const MeterDataset& data = **dataset;
  const size_t rows = data.num_consumers();

  PrintHeader(
      "Real-time ingest: delta appends vs concurrent routed queries",
      StringPrintf("%d households, %d-day base + %dh live, %d query "
                   "clients, snapshot cadence %.0f ms",
                   households, base_days, ingest_hours, query_threads,
                   snapshot_seconds * 1e3));

  // The immutable base: the first base_hours of every series.
  const auto make_base = [&]() -> Result<table::ColumnarBatch> {
    std::vector<int64_t> ids;
    std::vector<table::SeriesSlice> series;
    ids.reserve(rows);
    series.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      ids.push_back(data.consumer(r).household_id);
      series.emplace_back(data.consumer(r).consumption.data(), base_hours);
    }
    return table::ColumnarBatch::FromSlices(
        std::move(ids), std::move(series),
        table::SeriesSlice(data.temperature().data(), base_hours));
  };
  const engines::TaskOptions histogram =
      engines::TaskOptions::Default(core::TaskType::kHistogram);

  // -- Panel 1: no-ingest baseline -----------------------------------------
  double baseline_p99 = 0.0;
  {
    table::DeltaStore store;
    auto base = make_base();
    if (!base.ok() || !store.AttachBase(*base).ok()) {
      std::fprintf(stderr, "base attach failed\n");
      return 1;
    }
    SharedReader shared(&store);
    if (Status st = shared.reader.Open(); !st.ok()) {
      std::fprintf(stderr, "reader: %s\n", st.ToString().c_str());
      return 1;
    }
    std::atomic<bool> stop{false};
    QueryPanel panel;
    std::thread timer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
      stop.store(true, std::memory_order_relaxed);
    });
    panel = RunQueryLoad(&shared, histogram, rows, query_threads, stop);
    timer.join();
    baseline_p99 = panel.p99;
    std::printf("no-ingest baseline: %lld queries, p50 %.4fs, p99 %.4fs, "
                "%.0f q/s\n\n",
                static_cast<long long>(panel.ok), panel.p50, panel.p99,
                panel.qps);
    ctx.report().AddRun(LambdaRecord(query_threads, 0.8, panel));
  }

  // -- Panel 2: ingest-rate sweep ------------------------------------------
  PrintRow({"target r/s", "accepted r/s", "fresh p50 s", "fresh p99 s",
            "queries ok", "query p50 s", "query p99 s", "alerts"});
  PrintDivider(8);

  double worst_freshness_p99 = 0.0;
  double worst_query_p99 = 0.0;
  bool sweep_failed = false;
  for (const double multiplier : {1.0, 4.0, 16.0}) {
    const double target_rate = base_rate * multiplier;
    table::DeltaStore store;
    auto base = make_base();
    if (!base.ok() || !store.AttachBase(*base).ok()) {
      std::fprintf(stderr, "base attach failed\n");
      return 1;
    }
    SharedReader shared(&store);
    if (Status st = shared.reader.Open(); !st.ok()) {
      std::fprintf(stderr, "reader: %s\n", st.ToString().c_str());
      return 1;
    }

    streaming::AlertLog alerts;
    streaming::StreamProcessor::Options processor_options;
    processor_options.delta = &store;
    streaming::StreamProcessor processor(processor_options);
    // Detectors see only the live window, so warm up quickly enough for
    // the injected mid-window spike to be past warmup.
    streaming::SpikeDetector::Options spike_options;
    spike_options.warmup_readings = std::min(4, ingest_hours / 2 - 1);
    processor.AddDetectorPrototype(
        std::make_unique<streaming::SpikeDetector>(spike_options));
    processor.SetAlertSink(
        [&alerts](const streaming::Alert& a) { alerts.Record(a); });

    // Snapshot thread: publish + drain freshness samples at the cadence.
    std::atomic<bool> stop_snapshots{false};
    std::vector<double> freshness;
    std::thread snapshotter([&] {
      while (!stop_snapshots.load(std::memory_order_relaxed)) {
        store.Snapshot(&freshness);
        {
          std::lock_guard<std::mutex> lock(shared.mu);
          (void)shared.reader.Refresh();
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(snapshot_seconds));
      }
    });

    // Query load runs for the whole ingest window.
    std::atomic<bool> stop_queries{false};
    QueryPanel panel;
    std::thread query_runner([&] {
      panel = RunQueryLoad(&shared, histogram, rows, query_threads,
                           stop_queries);
    });

    // Paced hour-major ingest on this thread: for each live hour, every
    // household reports, which keeps each household's stream in order.
    const auto start = std::chrono::steady_clock::now();
    int64_t sent = 0;
    int64_t accepted = 0;
    Stopwatch ingest_wall;
    for (int h = 0; h < ingest_hours; ++h) {
      const size_t hour = base_hours + static_cast<size_t>(h);
      for (size_t r = 0; r < rows; ++r) {
        streaming::StreamReading reading;
        reading.household_id = data.consumer(r).household_id;
        reading.hour = static_cast<int64_t>(hour);
        reading.consumption = data.consumer(r).consumption[hour];
        // One injected spike so the alert path has traffic.
        if (r == 1 && h == ingest_hours / 2) reading.consumption += 15.0;
        reading.temperature = data.temperature()[hour];
        if (processor.Process(reading).ok()) ++accepted;
        ++sent;
        if (sent % 64 == 0) {
          const auto due =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(sent) / target_rate));
          std::this_thread::sleep_until(due);
        }
      }
    }
    const double ingest_seconds = ingest_wall.ElapsedSeconds();
    stop_queries.store(true, std::memory_order_relaxed);
    query_runner.join();
    // One final snapshot so every published reading's lag is sampled.
    stop_snapshots.store(true, std::memory_order_relaxed);
    snapshotter.join();
    store.Snapshot(&freshness);

    const double accepted_rate =
        ingest_seconds > 0 ? static_cast<double>(accepted) / ingest_seconds
                           : 0.0;
    const double fresh_p50 = Percentile(freshness, 0.50);
    const double fresh_p99 = Percentile(freshness, 0.99);
    worst_freshness_p99 = std::max(worst_freshness_p99, fresh_p99);
    worst_query_p99 = std::max(worst_query_p99, panel.p99);
    if (panel.failed > 0) {
      std::fprintf(stderr,
                   "INGEST SWEEP %.0f r/s: %lld of %lld routed queries "
                   "failed (want 0)\n",
                   target_rate, static_cast<long long>(panel.failed),
                   static_cast<long long>(panel.failed + panel.ok));
      sweep_failed = true;
    }
    if (accepted != sent) {
      std::fprintf(stderr,
                   "INGEST SWEEP %.0f r/s: accepted %lld of %lld sent "
                   "in-order readings, %lld lost (want 0)\n",
                   target_rate, static_cast<long long>(accepted),
                   static_cast<long long>(sent),
                   static_cast<long long>(sent - accepted));
      sweep_failed = true;
    }
    const int64_t alert_count =
        static_cast<int64_t>(alerts.Query(streaming::AlertQuery{}).size());
    PrintRow({Cell(target_rate), Cell(accepted_rate), Cell(fresh_p50),
              Cell(fresh_p99), CellInt(panel.ok), Cell(panel.p50),
              Cell(panel.p99), CellInt(alert_count)});

    obs::RunRecord record =
        LambdaRecord(query_threads, ingest_seconds, panel);
    record.ingest_rate = accepted_rate;
    record.freshness_p50_seconds = fresh_p50;
    record.freshness_p99_seconds = fresh_p99;
    ctx.report().AddRun(record);

    // -- Panel 3 (first config only): marker visibility --------------------
    if (multiplier == 1.0) {
      const size_t marker_hour = base_hours + static_cast<size_t>(ingest_hours);
      streaming::StreamReading marker;
      marker.household_id = data.consumer(0).household_id;
      marker.hour = static_cast<int64_t>(marker_hour);
      marker.consumption = 42.42;
      marker.temperature = data.temperature()[marker_hour];
      Stopwatch visibility_watch;
      if (!processor.Process(marker).ok()) {
        std::fprintf(stderr, "marker append rejected\n");
        return 1;
      }
      bool visible = false;
      Status refreshed = Status::OK();
      while (visibility_watch.ElapsedSeconds() < 2.0) {
        store.Snapshot(&freshness);
        std::lock_guard<std::mutex> lock(shared.mu);
        refreshed = shared.reader.Refresh();
        if (!refreshed.ok()) break;
        storage::ScanScope scope;
        scope.row_begin = 0;
        scope.row_count = 1;
        auto scoped = shared.reader.NewScopedBatch(scope);
        if (scoped.ok() && scoped->batch.hours() > marker_hour &&
            scoped->batch.consumption(0)[marker_hour] == 42.42) {
          visible = true;
          break;
        }
      }
      std::printf("\nmarker reading visible to a routed query after "
                  "%.4f s (%s)\n\n",
                  visibility_watch.ElapsedSeconds(),
                  visible ? "ok" : "TIMED OUT");
      if (!visible) {
        std::fprintf(stderr,
                     "INGEST SWEEP: marker reading not visible to a routed "
                     "query after %.4f s (limit 2.0 s)%s%s\n",
                     visibility_watch.ElapsedSeconds(),
                     refreshed.ok() ? "" : "; reader refresh failed: ",
                     refreshed.ok() ? "" : refreshed.ToString().c_str());
        sweep_failed = true;
      }
    }
  }

  std::printf(
      "\nShape to check: accepted rate tracks the target, freshness p99 "
      "stays near the snapshot cadence at every rate, and query p99 "
      "stays within 20%% of the no-ingest baseline.\n");

  if (Status st = ctx.Finish(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (!gate) return sweep_failed ? 1 : 0;

  int failures = sweep_failed ? 1 : 0;
  if (worst_freshness_p99 > freshness_limit) {
    std::fprintf(stderr,
                 "INGEST GATE: freshness p99 %.3fs exceeds the %.3fs "
                 "bound\n",
                 worst_freshness_p99, freshness_limit);
    ++failures;
  }
  const double query_bound =
      std::max(baseline_p99 * kQueryP99RegressionFactor,
               baseline_p99 + kQueryP99SlackSeconds);
  if (worst_query_p99 > query_bound) {
    std::fprintf(stderr,
                 "INGEST GATE: query p99 under ingest %.4fs exceeds "
                 "%.4fs (baseline %.4fs)\n",
                 worst_query_p99, query_bound, baseline_p99);
    ++failures;
  }
  if (failures > 0) return 1;
  std::printf("ingest gates passed: freshness p99 %.3fs, query p99 "
              "%.4fs vs baseline %.4fs\n",
              worst_freshness_p99, worst_query_p99, baseline_p99);
  return 0;
}

}  // namespace
}  // namespace smartmeter::bench

int main(int argc, char** argv) {
  smartmeter::bench::BenchContext ctx(argc, argv, /*default_scale=*/40.0);
  return smartmeter::bench::Run(ctx);
}
