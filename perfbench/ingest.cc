// The `ingest` workload: a DeltaStore over a 720-hour base, fed by a
// StreamProcessor with the store as its delta sink and a spike detector,
// at the program's defaults (publish lag 0, lateness allowance 0). One
// generator sends an open-loop stream at a fixed 8,000 readings/s,
// hour-major with households shuffled per hour by the seed, so each
// household's own stream is strictly in order. Snapshot + Refresh run
// about every 25 ms of stream time, and 2 paced clients run routed
// histograms over the latest snapshot at a fixed rate. Writes run beside
// reads on the table layer; no parse or column decode runs here.
//
// Every count of a run is fixed by its window: the readings, the queries,
// and which in-order readings the store's publish extent rejects. The
// snapshots go out on the generator's thread between the readings due on
// either side of them, so where they split the stream does not depend on
// thread scheduling, and the clients send a fixed number of queries
// instead of as many as the host allows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/string_util.h"
#include "engines/engine_util.h"
#include "exec/query_context.h"
#include "storage/scan_scope.h"
#include "streaming/alert_log.h"
#include "streaming/detectors.h"
#include "streaming/stream_processor.h"
#include "table/columnar_batch.h"
#include "table/delta_store.h"

namespace smbench {
namespace {

using smartmeter::Status;
using smartmeter::StatusCode;
using smartmeter::StringPrintf;
using smartmeter::table::DeltaStore;
using smartmeter::table::DeltaTableReader;

constexpr size_t kBaseHours = 720;
constexpr double kRate = 8000.0;
constexpr double kSnapshotSeconds = 0.025;
constexpr int kQueryClients = 2;
/// Queries per second each client sends, one outstanding at a time; well
/// below what a client manages back to back, so it keeps to its schedule.
constexpr double kQueryRate = 4000.0;
/// Head sampling of traced roots: one query in 32 and one reading in 4
/// keep the in-memory trace small at tens of thousands of operations per
/// second.
constexpr uint64_t kQuerySampling = 32;
constexpr int64_t kReadingSampling = 4;
/// Scan + kernel must cover at least this share of query latency.
constexpr double kAccountedFloor = 0.90;

/// The program under test for one window, built by one set-up.
struct Pipeline {
  std::unique_ptr<DeltaStore> store;
  std::unique_ptr<DeltaTableReader> reader;
  std::mutex reader_mu;  // Refresh() races NewScopedBatch() otherwise.
  smartmeter::streaming::AlertLog alerts;
  std::unique_ptr<smartmeter::streaming::StreamProcessor> processor;
};

Result<smartmeter::table::ColumnarBatch> BaseBatch(const MeterDataset& data) {
  std::vector<int64_t> ids;
  std::vector<smartmeter::table::SeriesSlice> series;
  for (const smartmeter::ConsumerSeries& c : data.consumers()) {
    ids.push_back(c.household_id);
    series.emplace_back(c.consumption.data(), kBaseHours);
  }
  return smartmeter::table::ColumnarBatch::FromSlices(
      std::move(ids), std::move(series),
      smartmeter::table::SeriesSlice(data.temperature().data(), kBaseHours));
}

Status BuildPipeline(const MeterDataset& data, Pipeline* p) {
  SM_ASSIGN_OR_RETURN(smartmeter::table::ColumnarBatch base, BaseBatch(data));
  p->store = std::make_unique<DeltaStore>();
  SM_RETURN_IF_ERROR(p->store->AttachBase(base));
  p->reader = std::make_unique<DeltaTableReader>(p->store.get());
  SM_RETURN_IF_ERROR(p->reader->Open());
  smartmeter::streaming::StreamProcessor::Options options;
  options.delta = p->store.get();
  p->processor =
      std::make_unique<smartmeter::streaming::StreamProcessor>(options);
  smartmeter::streaming::SpikeDetector::Options spike;
  spike.warmup_readings = 4;
  p->processor->AddDetectorPrototype(
      std::make_unique<smartmeter::streaming::SpikeDetector>(spike));
  p->processor->SetAlertSink(
      [p](const smartmeter::streaming::Alert& a) { p->alerts.Record(a); });
  return Status::OK();
}

/// The offered stream: reading i is hour kBaseHours + i / households, for
/// the household at position i % households of that hour's seeded
/// shuffle.
class Stream {
 public:
  Stream(const MeterDataset* data, uint64_t seed)
      : data_(data), rng_(seed ^ 0x5eedULL), order_(data->num_consumers()) {}

  smartmeter::streaming::StreamReading Next(size_t* row) {
    const size_t n = order_.size();
    if (index_ % n == 0) {
      std::iota(order_.begin(), order_.end(), size_t{0});
      std::shuffle(order_.begin(), order_.end(), rng_);
    }
    *row = order_[index_ % n];
    const size_t hour = kBaseHours + index_ / n;
    ++index_;
    smartmeter::streaming::StreamReading reading;
    reading.household_id = data_->consumer(*row).household_id;
    reading.hour = static_cast<int64_t>(hour);
    reading.consumption = data_->consumer(*row).consumption[hour];
    reading.temperature = data_->temperature()[hour];
    return reading;
  }

 private:
  const MeterDataset* data_;
  std::mt19937_64 rng_;
  std::vector<size_t> order_;
  size_t index_ = 0;
};

struct Offered {
  smartmeter::streaming::StreamReading reading;
  size_t row = 0;
  Clock::time_point sent;
  Clock::time_point processed;
  bool accepted = false;
};

struct PublishPoint {
  Clock::time_point returned;
  size_t extent = 0;
};

struct IngestSamples {
  std::vector<Offered> offered;
  std::vector<double> lateness;
  std::vector<double> freshness;
  /// Send -> answer of each query, and how late the clients sent them.
  std::vector<double> query_latency;
  std::vector<double> query_lateness;
  std::vector<double> query_scan;
  std::vector<double> query_kernel;
  /// Scan + kernel + result check, as the client's loop sees it. The
  /// scan, kernel and observed samples are kept in traced runs only.
  std::vector<double> query_observed;
  std::vector<double> snapshot;
  std::vector<double> refresh;
  int64_t accepted = 0;
  int64_t store_rejected = 0;
  int64_t late = 0;
  int64_t queries = 0;
  int64_t queries_failed = 0;
  int64_t alerts = 0;
  int64_t refresh_failed = 0;
  double generator_wall = 0.0;
  double query_wall = 0.0;
};

/// The final snapshot must equal the base plus every accepted reading:
/// published slots nobody wrote read 0.0, and an hour's temperature is
/// fixed by its first accepted reading.
void CheckFinalSnapshot(RunContext& run, const MeterDataset& data,
                        const std::vector<Offered>& offered,
                        const smartmeter::table::DeltaSnapshot& snapshot) {
  auto rebuilt = smartmeter::table::SnapshotToDataset(snapshot);
  if (!rebuilt.ok()) {
    run.Violation("ingest snapshot", rebuilt.status().ToString());
    return;
  }
  const size_t rows = data.num_consumers();
  size_t hours = kBaseHours;
  for (const Offered& o : offered) {
    if (o.accepted) {
      hours = std::max(hours, static_cast<size_t>(o.reading.hour) + 1);
    }
  }
  std::vector<std::vector<double>> expected(rows, std::vector<double>(hours));
  std::vector<double> temperature(hours, 0.0);
  std::vector<bool> temperature_set(hours, false);
  for (size_t r = 0; r < rows; ++r) {
    std::copy_n(data.consumer(r).consumption.begin(), kBaseHours,
                expected[r].begin());
  }
  std::copy_n(data.temperature().begin(), kBaseHours, temperature.begin());
  for (const Offered& o : offered) {
    if (!o.accepted) continue;
    const size_t h = static_cast<size_t>(o.reading.hour);
    expected[o.row][h] = o.reading.consumption;
    if (!temperature_set[h]) {
      temperature_set[h] = true;
      temperature[h] = o.reading.temperature;
    }
  }
  if (rebuilt->num_consumers() != rows || rebuilt->hours() != hours) {
    run.Violation("ingest final snapshot equals base + accepted readings",
                  StringPrintf("shape %zu x %zu, expected %zu x %zu",
                               rebuilt->num_consumers(), rebuilt->hours(),
                               rows, hours));
    return;
  }
  int64_t bad = 0;
  std::string first;
  for (size_t r = 0; r < rows; ++r) {
    const smartmeter::ConsumerSeries& got = rebuilt->consumer(r);
    if (got.household_id != data.consumer(r).household_id) {
      ++bad;
      if (first.empty()) first = StringPrintf("row %zu holds household %lld", r,
                                              (long long)got.household_id);
      continue;
    }
    for (size_t h = 0; h < hours; ++h) {
      if (std::memcmp(&got.consumption[h], &expected[r][h], sizeof(double))) {
        ++bad;
        if (first.empty()) {
          first = StringPrintf(
              "household %lld hour %zu = %.17g, expected %.17g (off by %.3g)",
              (long long)got.household_id, h, got.consumption[h],
              expected[r][h], std::fabs(got.consumption[h] - expected[r][h]));
        }
      }
    }
  }
  for (size_t h = 0; h < hours; ++h) {
    if (std::memcmp(&rebuilt->temperature()[h], &temperature[h],
                    sizeof(double))) {
      ++bad;
      if (first.empty()) {
        first = StringPrintf("temperature hour %zu = %.17g, expected %.17g", h,
                             rebuilt->temperature()[h], temperature[h]);
      }
    }
  }
  if (bad > 0) {
    run.Violation("ingest final snapshot equals base + accepted readings",
                  StringPrintf("%lld cells differ; first: %s", (long long)bad,
                               first.c_str()));
  }
}

IngestSamples RunWindow(RunContext& run, const MeterDataset& data,
                        Pipeline* p, double budget, bool traced,
                        uint64_t request_base) {
  SpanRecorder disabled(false);
  SpanRecorder& spans = traced ? run.spans() : disabled;
  IngestSamples s;
  std::vector<PublishPoint> history;

  const engines::TaskOptions histogram =
      engines::TaskOptions::Default(core::TaskType::kHistogram);
  const int64_t queries_per_client =
      static_cast<int64_t>(std::llround(budget * kQueryRate));
  std::mutex query_mu;
  std::vector<std::thread> clients;
  const Clock::time_point query_start = Clock::now();
  for (int c = 0; c < kQueryClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(run.args().seed * 7919ULL + request_base +
                          static_cast<uint64_t>(c));
      // The clients' schedules interleave: client c starts c / clients of
      // an interval late.
      OpenLoopSchedule schedule(
          query_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                c / (kQueryRate * kQueryClients))),
          kQueryRate);
      std::vector<double> latency, scan, kernel, observed;
      latency.reserve(static_cast<size_t>(queries_per_client));
      int64_t failed = 0;
      for (int64_t q = 0; q < queries_per_client; ++q) {
        const uint64_t request = request_base + 1 +
                                 static_cast<uint64_t>(q) * kQueryClients +
                                 static_cast<uint64_t>(c);
        const size_t row = static_cast<size_t>(rng() % data.num_consumers());
        smartmeter::storage::ScanScope scope;
        scope.row_begin = row;
        scope.row_count = 1;
        const Clock::time_point due = schedule.Due(q);
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        const Clock::time_point t0 = Clock::now();
        schedule.RecordSend(q, t0);
        Result<smartmeter::table::ScopedBatch> scoped = [&] {
          std::lock_guard<std::mutex> lock(p->reader_mu);
          return p->reader->NewScopedBatch(scope);
        }();
        const Clock::time_point t1 = Clock::now();
        engines::TaskResultSet results;
        bool ok = scoped.ok();
        if (ok) {
          ok = engines::RunTaskOverBatch(
                   smartmeter::exec::QueryContext::Background(),
                   scoped->batch, histogram, /*num_threads=*/1, &results)
                   .ok();
        }
        const Clock::time_point t2 = Clock::now();
        ok = ok && results.Holds<core::HistogramResult>() &&
             results.size() == 1 &&
             results.Get<core::HistogramResult>()[0].household_id ==
                 data.consumer(row).household_id;
        const Clock::time_point t3 = Clock::now();
        if (!ok) {
          ++failed;
          continue;
        }
        latency.push_back(SecondsBetween(t0, t2));
        if (traced) {
          scan.push_back(SecondsBetween(t0, t1));
          kernel.push_back(SecondsBetween(t1, t2));
          observed.push_back(SecondsBetween(t0, t3));
        }
        if (request % kQuerySampling == 0) {
          const int64_t root =
              spans.Add("ingest.query", "harness", t0, t3, -1, request);
          spans.Add("table.DeltaTableReader.NewScopedBatch", "table", t0, t1,
                    root, request);
          spans.Add("engines.RunTaskOverBatch", "core", t1, t2, root,
                    request);
        }
      }
      std::lock_guard<std::mutex> lock(query_mu);
      s.query_latency.insert(s.query_latency.end(), latency.begin(),
                             latency.end());
      s.query_lateness.insert(s.query_lateness.end(),
                              schedule.lateness().begin(),
                              schedule.lateness().end());
      s.query_scan.insert(s.query_scan.end(), scan.begin(), scan.end());
      s.query_kernel.insert(s.query_kernel.end(), kernel.begin(), kernel.end());
      s.query_observed.insert(s.query_observed.end(), observed.begin(),
                              observed.end());
      s.queries += queries_per_client;
      s.queries_failed += failed;
    });
  }

  // The generator runs on this thread, open loop at kRate. Snapshot k is
  // due at k periods of stream time and goes out just before the first
  // reading due at or after it. The period is 25 ms stretched by
  // 25 ms / budget, so over the window the snapshots' phase slides by
  // exactly one period against the stream's 50 ms hour grid: how many
  // in-order readings the publish extent rejects depends on that phase,
  // and the run samples every phase evenly.
  const double period =
      kSnapshotSeconds + kSnapshotSeconds * kSnapshotSeconds / budget;
  Stream stream(&data, run.args().seed);
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule schedule(start, kRate);
  const int64_t total = static_cast<int64_t>(std::llround(budget * kRate));
  s.offered.reserve(static_cast<size_t>(total));
  uint64_t next_snapshot = 1;
  const auto snapshot_index = [&](uint64_t k) {
    return static_cast<int64_t>(
        std::ceil(period * static_cast<double>(k) * kRate));
  };
  for (int64_t i = 0; i < total; ++i) {
    while (snapshot_index(next_snapshot) <= i) {
      const uint64_t request = request_base + 500000000ULL + next_snapshot;
      const Clock::time_point snapshot_due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          period * static_cast<double>(next_snapshot)));
      ++next_snapshot;
      if (Clock::now() < snapshot_due) {
        std::this_thread::sleep_until(snapshot_due);
      }
      const Clock::time_point t0 = Clock::now();
      std::shared_ptr<const smartmeter::table::DeltaSnapshot> snap =
          p->store->Snapshot();
      const Clock::time_point t1 = Clock::now();
      Status refreshed;
      size_t refreshed_hours = 0;
      {
        std::lock_guard<std::mutex> lock(p->reader_mu);
        refreshed = p->reader->Refresh();
        refreshed_hours = p->reader->snapshot()->hours;
      }
      const Clock::time_point t2 = Clock::now();
      spans.Add("table.DeltaStore.Snapshot", "table", t0, t1, -1, request);
      spans.Add("table.DeltaTableReader.Refresh", "table", t1, t2, -1,
                request);
      history.push_back({t1, snap->hours});
      history.push_back({t2, refreshed_hours});
      if (!refreshed.ok()) ++s.refresh_failed;
      s.snapshot.push_back(SecondsBetween(t0, t1));
      s.refresh.push_back(SecondsBetween(t1, t2));
    }
    const Clock::time_point due = schedule.Due(i);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    Offered o;
    o.reading = stream.Next(&o.row);
    o.sent = Clock::now();
    schedule.RecordSend(i, o.sent);
    const int64_t late0 = p->processor->readings_late();
    const Status st = p->processor->Process(o.reading);
    o.processed = Clock::now();
    o.accepted = st.ok();
    if (st.ok()) {
      ++s.accepted;
    } else if (st.code() == StatusCode::kOutOfRange &&
               p->processor->readings_late() == late0) {
      ++s.store_rejected;  // The store refused it, not the watermark.
    }
    s.offered.push_back(o);
  }
  s.generator_wall = SecondsBetween(start, Clock::now());
  for (std::thread& t : clients) t.join();
  s.query_wall = SecondsBetween(query_start, Clock::now());
  // A last snapshot publishes everything still pending.
  std::shared_ptr<const smartmeter::table::DeltaSnapshot> last =
      p->store->Snapshot();
  history.push_back({Clock::now(), last->hours});
  s.late = p->processor->readings_late();
  s.alerts = p->processor->alerts_raised();
  s.lateness = schedule.lateness();

  // Freshness: due time to the return of the first Snapshot() whose
  // published extent covers the reading's hour.
  for (size_t i = 0; i < s.offered.size(); ++i) {
    const Offered& o = s.offered[i];
    const auto publish = std::upper_bound(
        history.begin(), history.end(), static_cast<size_t>(o.reading.hour),
        [](size_t hour, const PublishPoint& point) {
          return hour < point.extent;
        });
    const Clock::time_point due = schedule.Due(static_cast<int64_t>(i));
    if (o.accepted && publish != history.end()) {
      s.freshness.push_back(schedule.LatencyFromDue(static_cast<int64_t>(i),
                                                    publish->returned));
    }
    if (traced && static_cast<int64_t>(i) % kReadingSampling == 0) {
      const uint64_t request = request_base + 900000000ULL + i;
      const Clock::time_point end =
          o.accepted && publish != history.end() ? publish->returned
                                                 : o.processed;
      const int64_t root =
          spans.Add("ingest.reading", "harness", due, end, -1, request);
      spans.Add("ingest.generator_lag", "harness", due, o.sent, root, request);
      spans.Add("streaming.StreamProcessor.Process", "streaming", o.sent,
                o.processed, root, request);
    }
  }
  CheckFinalSnapshot(run, data, s.offered, *last);
  if (s.refresh_failed > 0) {
    run.Violation("ingest refresh", StringPrintf("%lld Refresh() calls failed",
                                                 (long long)s.refresh_failed));
  }
  const int64_t offered = static_cast<int64_t>(s.offered.size());
  run.CountOps("reading", offered, offered - s.accepted);
  run.CountOps("query", s.queries, s.queries_failed);
  return s;
}

}  // namespace

int RunIngest(RunContext& run) {
  const Args& args = run.args();
  std::vector<double> setup;
  std::vector<double> generate;
  MeterDataset data;
  auto pipeline = std::make_unique<Pipeline>();
  for (int i = 0; i < kSetups; ++i) {
    pipeline = std::make_unique<Pipeline>();
    const Clock::time_point t0 = Clock::now();
    auto generated = GenerateDataset(args.seed);
    const Clock::time_point t1 = Clock::now();
    if (!generated.ok()) {
      std::fprintf(stderr, "datagen: %s\n",
                   generated.status().ToString().c_str());
      return 2;
    }
    if (Status st = BuildPipeline(*generated, pipeline.get()); !st.ok()) {
      std::fprintf(stderr, "pipeline: %s\n", st.ToString().c_str());
      return 2;
    }
    setup.push_back(SecondsBetween(t0, Clock::now()));
    generate.push_back(SecondsBetween(t0, t1));
    data = std::move(*generated);
  }
  run.Note(StringPrintf(
      "  config: base %zu h, offered %.0f readings/s hour-major, publish lag "
      "0, lateness allowance 0, snapshot every %.0f ms of stream time "
      "(slid by one period per window), %d query clients paced at %.0f/s "
      "each",
      kBaseHours, kRate, kSnapshotSeconds * 1e3, kQueryClients, kQueryRate));

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const IngestSamples untraced =
      RunWindow(run, data, pipeline.get(), window, /*traced=*/false, 0);
  IngestSamples traced;
  if (args.trace) {
    pipeline = std::make_unique<Pipeline>();
    if (Status st = BuildPipeline(data, pipeline.get()); !st.ok()) {
      std::fprintf(stderr, "pipeline: %s\n", st.ToString().c_str());
      return 2;
    }
    traced = RunWindow(run, data, pipeline.get(), window, /*traced=*/true,
                       1000000000ULL);
  }

  const Summary setup_summary = Summarize(setup);
  run.EndToEnd("setup_s", setup_summary.median, "s",
               "datagen + DeltaStore AttachBase + reader + processor; " +
                   FormatSummary(setup_summary, "s"));
  // Freshness is taken over the whole window: the snapshot schedule
  // sweeps its phase once per window, so a sub-window sees one phase only.
  const Summary fresh = Summarize(untraced.freshness);
  run.EndToEnd("data_to_answer_s", fresh.median, "s",
               "freshness: a reading's due time -> return of the Snapshot() "
               "that makes it queryable; " +
                   FormatSummary(fresh, "s"));
  run.Info("data_to_answer_p99_s", fresh.tail.value, "s",
               StringPrintf("freshness p%g", fresh.tail.percentile));
  const Summary latency = Summarize(untraced.query_latency);
  run.Info("queries_per_s",
           static_cast<double>(untraced.query_latency.size()) /
               untraced.query_wall,
           "1/s",
           StringPrintf("%d clients paced at %.0f/s each",
                        kQueryClients, kQueryRate));
  run.Info("query_p50_s", latency.median, "s",
           "scoped scan + kernel; " + FormatSummary(latency, "s"));
  run.Info("query_p99_s", latency.tail.value, "s",
           StringPrintf("p%g", latency.tail.percentile));
  const Summary query_lag = Summarize(untraced.query_lateness);
  run.Info("query_lag_s", query_lag.median, "s",
           "paced clients' lateness (sent - due); " +
               FormatSummary(query_lag, "s"));
  const int64_t offered = static_cast<int64_t>(untraced.offered.size());
  run.Info("ingest_accepted_per_s",
           static_cast<double>(untraced.accepted) / untraced.generator_wall,
           "readings/s",
           StringPrintf("%lld of %lld offered readings accepted",
                        (long long)untraced.accepted, (long long)offered));
  run.Info("freshness_p50_s", fresh.median, "s", "= data_to_answer_s");
  run.Info("freshness_p99_s", fresh.tail.value, "s",
           "= data_to_answer_p99_s");
  run.Info("rejected_in_order_readings",
           static_cast<double>(untraced.store_rejected), "count",
           "in order for their household, refused by the store's publish "
           "extent");
  run.Info("alerts_raised", static_cast<double>(untraced.alerts), "count");
  run.Info("snapshots", static_cast<double>(untraced.snapshot.size()),
           "count", "Snapshot + Refresh cycles of the snapshotter");
  const Summary lag = Summarize(untraced.lateness);
  run.Info("generator_lag_s", lag.median, "s",
           "open-loop lateness (sent - due); " + FormatSummary(lag, "s"));

  if (args.trace) {
    run.Layer("datagen.generate_s", Median(generate), "s",
              "DataGenerator seed + Train + Generate, median of set-ups");
    const double u = latency.median;
    const double t = Median(traced.query_latency);
    run.Layer("trace.overhead_share", (t - u) / u, "ratio",
              StringPrintf("traced vs untraced query median: %.3g vs %.3g s",
                           t, u));
    run.Layer("table.delta.snapshot_s", Median(traced.snapshot), "s",
              "DeltaStore::Snapshot");
    run.Layer("table.delta.refresh_s", Median(traced.refresh), "s",
              "DeltaTableReader::Refresh");
    run.Layer("table.delta.scoped_scan_s", Median(traced.query_scan), "s",
              "NewScopedBatch incl. the reader lock");
    run.Layer("core.query_kernel_s", Median(traced.query_kernel), "s",
              "RunTaskOverBatch histogram over one household, 1 thread");
    run.Layer("table.delta.rejected",
              static_cast<double>(traced.store_rejected), "count",
              "store-side OutOfRange, not in readings_late()");
    run.Layer("streaming.readings_late", static_cast<double>(traced.late),
              "count", "StreamProcessor::readings_late()");
    std::vector<double> process;
    for (const Offered& o : traced.offered) {
      process.push_back(SecondsBetween(o.sent, o.processed));
    }
    run.Layer("streaming.process_s", Median(process), "s",
              "StreamProcessor::Process incl. the delta append");
    run.Layer("ingest.generator_lag_p99_s",
              SupportedTail(traced.lateness).value, "s",
              "generator lateness (sent - due)");

    // table: the same stream replayed straight into a second store.
    DeltaStore replay;
    auto base = BaseBatch(data);
    if (!base.ok() || !replay.AttachBase(*base).ok()) {
      run.Violation("layer replay", "second store attach failed");
    } else {
      int64_t failed = 0;
      const Clock::time_point a0 = Clock::now();
      for (const Offered& o : traced.offered) {
        if (!replay.Append(o.reading.household_id, o.reading.hour,
                           o.reading.consumption, o.reading.temperature)
                 .ok()) {
          ++failed;
        }
      }
      const double append_total = SecondsBetween(a0, Clock::now());
      run.Layer("table.delta.append_s",
                append_total / static_cast<double>(traced.offered.size()), "s",
                "DeltaStore::Append mean over the replayed stream");
      if (failed > 0) {
        run.Violation("layer replay",
                      StringPrintf("%lld replayed appends failed",
                                   (long long)failed));
      }
    }

    double accounted = 0.0;
    double total = 0.0;
    for (size_t i = 0; i < traced.query_observed.size(); ++i) {
      accounted += traced.query_scan[i] + traced.query_kernel[i];
      total += traced.query_observed[i];
    }
    const double share = total > 0 ? accounted / total : 0.0;
    run.Layer("trace.accounted_share", share, "ratio",
              "scoped scan + kernel over the client loop's query time");
    run.Note(StringPrintf("  trace check: scan + kernel = %.3f of the "
                          "client loop's query time incl. the result check "
                          "(must be >= %.2f)",
                          share, kAccountedFloor));
    if (share < kAccountedFloor || share > 1.0 + 1e-9) {
      run.Violation("trace accounting",
                    StringPrintf("query layers account for %.3f of query "
                                 "latency, outside [%.2f, 1]",
                                 share, kAccountedFloor));
    }
  }
  return 0;
}

}  // namespace smbench
