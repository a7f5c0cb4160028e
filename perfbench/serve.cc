// The `serve` workload: a ServingRunner with 4 shards and 4 System C
// sessions (1 thread each) attached through the columnar cache at its
// default format, with routing open. 4 closed-loop clients in 2 tenants
// send 80% routed single-household histograms, 10% routed PAR and 10%
// all-households scatter histograms. This exercises admission, DRR
// dispatch, scatter/gather and scoped scans with little kernel work and
// no parse; clients wait for each reply, as dashboard clients do.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/string_util.h"
#include "engines/engine_util.h"
#include "engines/systemc_engine.h"
#include "exec/query_context.h"
#include "exec/serving_runner.h"
#include "storage/csv.h"
#include "storage/scan_scope.h"
#include "table/columnar_cache.h"
#include "table/data_source.h"
#include "table/table_reader.h"

namespace smbench {
namespace {

namespace fs = std::filesystem;
using smartmeter::StringPrintf;
using smartmeter::engines::SystemCEngine;
using smartmeter::exec::QueryOutcome;
using smartmeter::exec::QueryRequest;
using smartmeter::exec::ServingRunner;
using smartmeter::table::DataSource;

constexpr size_t kShards = 4;
constexpr int kSessions = 4;
constexpr int kClients = 4;
/// Submit + queue + run + gather must cover at least this share of the
/// client-observed latency in the traced window.
constexpr double kAccountedFloor = 0.80;

/// A runner and the sessions it borrows; the runner is declared last so
/// it shuts down before the engines it dispatches to are destroyed.
struct Serving {
  std::vector<std::unique_ptr<SystemCEngine>> engines;
  std::unique_ptr<ServingRunner> runner;
};

struct QueryRecord {
  /// Completion, in seconds from the start of the window.
  double at = 0.0;
  double latency = 0.0;
  double submit = 0.0;
  double queue = 0.0;
  double run = 0.0;
  double gather = 0.0;
  bool scatter = false;
};

struct ClientResult {
  std::vector<QueryRecord> ok;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<std::string> errors;
};

struct ServeSamples {
  std::vector<QueryRecord> ok;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall = 0.0;
  int64_t blocks_decoded = 0;
};

/// One closed-loop client: submit, wait, check, repeat until `deadline`.
void Client(ServingRunner* runner, const Reference* ref,
            const std::vector<int64_t>* ids, uint64_t seed, int client,
            Clock::time_point start, Clock::time_point deadline,
            SpanRecorder* spans,
            uint64_t request_base, ClientResult* out) {
  std::mt19937_64 rng(seed * 1000003ULL + static_cast<uint64_t>(client));
  const std::string tenant = client < kClients / 2 ? "tenant-a" : "tenant-b";
  const engines::TaskOptions histogram =
      engines::TaskOptions::Default(core::TaskType::kHistogram);
  const engines::TaskOptions par =
      engines::TaskOptions::Default(core::TaskType::kPar);
  uint64_t q = 0;
  while (Clock::now() < deadline) {
    const uint64_t request = request_base + q++ * kClients;
    const int draw = static_cast<int>(rng() % 100);
    const size_t row = static_cast<size_t>(rng() % ids->size());
    const bool scatter = draw >= 90;
    const core::TaskType task =
        draw >= 80 && draw < 90 ? core::TaskType::kPar
                                : core::TaskType::kHistogram;
    QueryRequest::Builder builder;
    builder.Tenant(tenant)
        .Task(task == core::TaskType::kPar ? par : histogram)
        .Label(StringPrintf("client-%d/q%llu", client,
                            static_cast<unsigned long long>(q)));
    if (!scatter) builder.Household((*ids)[row]);
    auto built = builder.Build();
    ++out->attempted;
    if (!built.ok()) {
      ++out->failed;
      out->errors.push_back(built.status().ToString());
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    auto ticket = runner->Submit(*built);
    const Clock::time_point t1 = Clock::now();
    if (!ticket.ok()) {
      ++out->failed;
      out->errors.push_back(ticket.status().ToString());
      continue;
    }
    const QueryOutcome& outcome = (*ticket)->Wait();
    const Clock::time_point t2 = Clock::now();
    if (!outcome.status.ok()) {
      ++out->failed;
      out->errors.push_back(outcome.status.ToString());
      continue;
    }
    const std::string diff =
        scatter ? CompareResults(outcome.results, *ref, task)
                : CompareRow(outcome.results, *ref, task, row);
    if (!diff.empty()) {
      ++out->failed;
      out->violations.push_back(
          std::string(scatter ? "scatter histogram equals the whole-table "
                              : "routed query equals its household's ") +
          "reference: " + diff);
      continue;
    }
    QueryRecord record;
    record.at = SecondsBetween(start, t2);
    record.latency = SecondsBetween(t0, t2);
    record.submit = SecondsBetween(t0, t1);
    record.queue = outcome.queue_seconds;
    record.run = outcome.run_seconds;
    record.scatter = scatter;
    bool after_scatter_row = false;
    for (const smartmeter::exec::StageTiming& stage : outcome.stages) {
      if (after_scatter_row) record.gather += stage.seconds;
      if (stage.name == "scatter") after_scatter_row = true;
    }
    out->ok.push_back(record);
    if (spans->enabled()) {
      // Queue, run and gather follow admission back to back; they are
      // reported by the runner as durations, so they are laid out from
      // the end of the Submit call.
      const auto at = [&](double seconds) {
        return t1 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
      };
      const int64_t root =
          spans->Add("serve.query", "harness", t0, t2, -1, request);
      spans->Add("exec.ServingRunner.Submit", "exec", t0, t1, root, request);
      spans->Add("exec.serving.queue", "exec", t1, at(record.queue), root,
                 request);
      spans->Add("exec.serving.run", "exec", at(record.queue),
                 at(record.queue + record.run), root, request);
      if (scatter) {
        spans->Add("exec.serving.gather", "exec",
                   at(record.queue + record.run),
                   at(record.queue + record.run + record.gather), root,
                   request);
      }
    }
  }
}

ServeSamples RunWindow(RunContext& run, ServingRunner* runner,
                       const Reference& ref, const std::vector<int64_t>& ids,
                       double budget, bool traced, uint64_t seed_offset) {
  SpanRecorder disabled(false);
  SpanRecorder* spans = traced ? &run.spans() : &disabled;
  const int64_t blocks0 = CounterValue("table.scan.blocks_decoded");
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(budget));
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(Client, runner, &ref, &ids,
                         run.args().seed + seed_offset, c, start, deadline,
                         spans,
                         static_cast<uint64_t>(c + 1) + seed_offset * 1000000,
                         &results[static_cast<size_t>(c)]);
  }
  for (std::thread& t : clients) t.join();
  ServeSamples samples;
  samples.wall = SecondsBetween(start, Clock::now());
  samples.blocks_decoded = CounterValue("table.scan.blocks_decoded") - blocks0;
  for (ClientResult& r : results) {
    samples.ok.insert(samples.ok.end(), r.ok.begin(), r.ok.end());
    samples.attempted += r.attempted;
    samples.failed += r.failed;
    for (const std::string& v : r.violations) {
      run.Violation("serve correctness", v);
    }
    if (!r.errors.empty()) {
      run.Note(StringPrintf("  %zu failed queries, first: %s",
                            r.errors.size(), r.errors.front().c_str()));
    }
  }
  run.CountOps("query", samples.attempted, samples.failed);
  return samples;
}

std::vector<double> Field(const std::vector<QueryRecord>& records,
                          double QueryRecord::*field, bool scatter_only) {
  std::vector<double> values;
  for (const QueryRecord& r : records) {
    if (!scatter_only || r.scatter) values.push_back(r.*field);
  }
  return values;
}

std::vector<TimedSample> Latencies(const std::vector<QueryRecord>& records) {
  std::vector<TimedSample> samples;
  samples.reserve(records.size());
  for (const QueryRecord& r : records) samples.push_back({r.at, r.latency});
  return samples;
}

/// The traced run's layer replays: decode of the spooled file, a scoped
/// scan of each shard's slice, and the routed kernel over one slice.
void ReplayLayers(RunContext& run, const std::string& cache_file) {
  SpanRecorder& spans = run.spans();
  std::vector<double> decode;
  std::unique_ptr<smartmeter::table::ColumnFileReader> reader;
  for (int i = 0; i < 3; ++i) {
    reader = std::make_unique<smartmeter::table::ColumnFileReader>(cache_file);
    const Clock::time_point t0 = Clock::now();
    const smartmeter::Status opened = reader->Open();
    const Clock::time_point t1 = Clock::now();
    spans.Add("table.ColumnFileReader.Open", "table", t0, t1, -1, 0);
    if (!opened.ok()) {
      run.Violation("layer replay", "decode: " + opened.ToString());
      return;
    }
    decode.push_back(SecondsBetween(t0, t1));
  }
  run.Layer("table.decode_s", Median(decode), "s",
            "ColumnFileReader::Open of the spooled cache file, median of 3");

  std::vector<double> scan;
  std::vector<double> kernel;
  std::vector<double> bytes;
  const engines::TaskOptions histogram =
      engines::TaskOptions::Default(core::TaskType::kHistogram);
  for (int rep = 0; rep < 5; ++rep) {
    for (size_t shard = 0; shard < kShards; ++shard) {
      smartmeter::storage::ScanScope scope;
      scope.row_begin = kHouseholds * shard / kShards;
      scope.row_count = kHouseholds * (shard + 1) / kShards - scope.row_begin;
      const Clock::time_point t0 = Clock::now();
      auto scoped = reader->NewScopedBatch(scope);
      const Clock::time_point t1 = Clock::now();
      spans.Add("table.ColumnFileReader.NewScopedBatch", "table", t0, t1, -1,
                0);
      if (!scoped.ok()) {
        run.Violation("layer replay", "scoped scan: " +
                                          scoped.status().ToString());
        return;
      }
      scan.push_back(SecondsBetween(t0, t1));
      bytes.push_back(static_cast<double>(scoped->stats.bytes_decoded));
      engines::TaskResultSet results;
      const Clock::time_point k0 = Clock::now();
      auto metrics = engines::RunTaskOverBatch(
          smartmeter::exec::QueryContext::Background(), scoped->batch,
          histogram, /*num_threads=*/1, &results);
      const Clock::time_point k1 = Clock::now();
      spans.Add("engines.RunTaskOverBatch", "core", k0, k1, -1, 0);
      if (!metrics.ok()) {
        run.Violation("layer replay", "kernel: " +
                                          metrics.status().ToString());
        return;
      }
      kernel.push_back(SecondsBetween(k0, k1));
    }
  }
  run.Layer("table.scoped_scan_s", Median(scan), "s",
            "NewScopedBatch over one shard's slice, median over 4 shards x 5");
  run.Layer("table.bytes_decoded_per_query", Median(bytes), "bytes",
            "ScanStats.bytes_decoded of one shard-slice scan (a routed query)");
  run.Layer("core.query_kernel_s", Median(kernel), "s",
            "RunTaskOverBatch histogram over one routed shard slice, 1 thread");
}

}  // namespace

int RunServe(RunContext& run) {
  const Args& args = run.args();
  std::vector<double> setup;
  std::vector<double> generate;
  std::vector<double> load;
  std::vector<double> answer;
  std::vector<std::pair<size_t, engines::TaskResultSet>> first_answers;
  int64_t setup_hits = 0;
  int64_t setup_misses = 0;
  Serving serving;
  MeterDataset data;
  std::string data_dir;
  std::string spool;
  std::string csv;
  for (int i = 0; i < kSetups; ++i) {
    // Shut the previous set-up down: the runner before its sessions.
    serving.runner.reset();
    serving.engines.clear();
    std::error_code ec;
    if (!data_dir.empty()) fs::remove_all(data_dir, ec);
    if (!spool.empty()) fs::remove_all(spool, ec);

    const Clock::time_point t0 = Clock::now();
    auto generated = GenerateDataset(args.seed);
    const Clock::time_point t1 = Clock::now();
    if (!generated.ok()) {
      std::fprintf(stderr, "datagen: %s\n",
                   generated.status().ToString().c_str());
      return 2;
    }
    data_dir = FreshDir(run, StringPrintf("data-%d", i));
    csv = data_dir + "/readings.csv";
    if (auto st = smartmeter::storage::WriteReadingsCsv(*generated, csv);
        !st.ok()) {
      std::fprintf(stderr, "write csv: %s\n", st.ToString().c_str());
      return 2;
    }
    auto source = DataSource::SingleCsv(csv);
    if (!source.ok()) {
      std::fprintf(stderr, "source: %s\n", source.status().ToString().c_str());
      return 2;
    }
    spool = FreshDir(run, StringPrintf("spool-%d", i));
    smartmeter::exec::ServingOptions options;
    options.num_shards = kShards;
    options.keep_results = true;  // The results are checked.
    serving.runner = std::make_unique<ServingRunner>(options);
    const int64_t hits0 = CounterValue("table.cache.hits");
    const int64_t misses0 = CounterValue("table.cache.misses");
    const Clock::time_point a0 = Clock::now();
    for (int s = 0; s < kSessions; ++s) {
      serving.engines.push_back(std::make_unique<SystemCEngine>(spool));
      serving.engines.back()->SetThreads(1);
      auto attached =
          serving.runner->AttachSession(serving.engines.back().get(), *source);
      if (!attached.ok()) {
        std::fprintf(stderr, "attach: %s\n",
                     attached.status().ToString().c_str());
        return 2;
      }
    }
    if (auto st = serving.runner->OpenRouting(*source, spool); !st.ok()) {
      std::fprintf(stderr, "routing: %s\n", st.ToString().c_str());
      return 2;
    }
    const Clock::time_point a1 = Clock::now();
    for (auto& engine : serving.engines) {
      if (!engine->WarmUp().ok()) {
        std::fprintf(stderr, "warm-up failed\n");
        return 2;
      }
    }
    setup.push_back(SecondsBetween(t0, Clock::now()));
    generate.push_back(SecondsBetween(t0, t1));
    load.push_back(SecondsBetween(a0, a1));
    // The first answer: one routed histogram right after the set-up.
    const size_t row = static_cast<size_t>(args.seed + i) %
                       generated->num_consumers();
    auto request = QueryRequest::Builder()
                       .Tenant("tenant-a")
                       .Task(engines::TaskOptions::Default(
                           core::TaskType::kHistogram))
                       .Household(generated->consumer(row).household_id)
                       .Build();
    const Clock::time_point q0 = Clock::now();
    auto ticket = request.ok() ? serving.runner->Submit(*request)
                               : smartmeter::Result<std::shared_ptr<
                                     smartmeter::exec::QueryTicket>>(
                                     request.status());
    if (!ticket.ok() || !(*ticket)->Wait().status.ok()) {
      std::fprintf(stderr, "first query failed\n");
      return 2;
    }
    answer.push_back(SecondsBetween(a0, a1) + SecondsBetween(q0, Clock::now()));
    first_answers.push_back({row, (*ticket)->Wait().results});
    setup_hits = CounterValue("table.cache.hits") - hits0;
    setup_misses = CounterValue("table.cache.misses") - misses0;
    if (setup_misses != 1) {
      run.Violation("cold serving attach",
                    StringPrintf("table.cache.misses rose by %lld (want 1)",
                                 (long long)setup_misses));
    }
    data = std::move(*generated);
  }

  const Clock::time_point ref_start = Clock::now();
  auto ref = ComputeReference(
      data, {core::TaskType::kHistogram, core::TaskType::kPar}, 4);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref.status().ToString().c_str());
    return 2;
  }
  run.Info("reference_s", SecondsBetween(ref_start, Clock::now()), "s",
           "core-kernel reference on 4 threads, excluded from setup_s");
  for (const auto& [row, results] : first_answers) {
    const std::string diff =
        CompareRow(results, *ref, core::TaskType::kHistogram, row);
    if (!diff.empty()) {
      run.Violation("first routed query after attach equals its household's "
                    "reference",
                    diff);
    }
  }
  std::vector<int64_t> ids;
  for (const smartmeter::ConsumerSeries& c : data.consumers()) {
    ids.push_back(c.household_id);
  }

  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const ServeSamples untraced = RunWindow(run, serving.runner.get(), *ref, ids,
                                          window, /*traced=*/false, 0);
  ServeSamples traced;
  if (args.trace) {
    traced = RunWindow(run, serving.runner.get(), *ref, ids, window,
                       /*traced=*/true, 1);
  }

  const Summary setup_summary = Summarize(setup);
  run.EndToEnd("setup_s", setup_summary.median, "s",
               "datagen + CSV write + 4-session sharded attach + routing + "
               "warm-up; " +
                   FormatSummary(setup_summary, "s"));
  const Summary answer_summary = Summarize(answer);
  run.EndToEnd("data_to_answer_s", answer_summary.median, "s",
               "cold sharded attach (4 sessions + routing) + the first routed "
               "query, one per set-up; " +
                   FormatSummary(answer_summary, "s"));
  run.Info("data_to_answer_p99_s", answer_summary.tail.value, "s",
               "tail of data_to_answer_s");
  const Summary load_summary = Summarize(load);
  run.Info("load_s", load_summary.median, "s",
           "cold sharded attach; " + FormatSummary(load_summary, "s"));
  const QueryWindow latency =
      CalmestQueryWindow(Latencies(untraced.ok), untraced.wall);
  run.Info("queries_per_s", latency.calm.rate, "1/s",
           StringPrintf("%zu correct queries in %.3f s", untraced.ok.size(),
                        untraced.wall));
  run.Info("query_p50_s", latency.calm.median, "s",
           "Submit -> Wait; " + FormatWindow(latency, "s"));
  run.Info("query_p99_s", latency.calm.tail.value, "s",
           StringPrintf("p%g", latency.calm.tail.percentile));
  if (untraced.ok.size() < 1000) {
    run.Note(StringPrintf("  note: only %zu queries; the workload asks for "
                          "at least 1000",
                          untraced.ok.size()));
  }

  if (args.trace) {
    run.Layer("datagen.generate_s", Median(generate), "s",
              "DataGenerator seed + Train + Generate, median of set-ups");
    run.Layer("table.cache_hits", static_cast<double>(setup_hits), "count",
              "per sharded attach: 3 sessions + routing hit the spool");
    run.Layer("table.cache_misses", static_cast<double>(setup_misses), "count",
              "per sharded attach (must be 1)");
    const QueryWindow traced_latency =
        CalmestQueryWindow(Latencies(traced.ok), traced.wall);
    run.Layer("trace.overhead_share",
              (traced_latency.calm.median - latency.calm.median) /
                  latency.calm.median,
              "ratio",
              StringPrintf("traced vs untraced query median: %.6f vs %.6f s",
                           traced_latency.calm.median, latency.calm.median));
    run.Layer("exec.serving.submit_s",
              Median(Field(traced.ok, &QueryRecord::submit, false)), "s",
              "ServingRunner::Submit call");
    run.Layer("exec.serving.queue_s",
              Median(Field(traced.ok, &QueryRecord::queue, false)), "s",
              "QueryOutcome.queue_seconds");
    run.Layer("exec.serving.run_s",
              Median(Field(traced.ok, &QueryRecord::run, false)), "s",
              "QueryOutcome.run_seconds");
    run.Layer("exec.serving.gather_s",
              Median(Field(traced.ok, &QueryRecord::gather, true)), "s",
              "materialize + merge stage rows of scatter queries");
    const smartmeter::exec::ServingStats stats = serving.runner->stats();
    run.Layer("exec.serving.peak_queue_depth",
              static_cast<double>(stats.peak_queue_depth), "count",
              "ServingStats, whole run");
    run.Layer("exec.serving.shed",
              static_cast<double>(stats.shed_queue_full + stats.shed_quota +
                                  stats.shed_evicted + stats.shed_deadline +
                                  stats.shed_cancelled),
              "count", "ServingStats, whole run");
    run.Layer("exec.serving.failed", static_cast<double>(stats.failed),
              "count", "ServingStats, whole run");
    run.Layer("table.blocks_decoded_per_query",
              traced.ok.empty() ? 0.0
                                : static_cast<double>(traced.blocks_decoded) /
                                      static_cast<double>(traced.ok.size()),
              "count", "table.scan.blocks_decoded delta per traced query");

    double accounted = 0.0;
    double total = 0.0;
    for (const QueryRecord& r : traced.ok) {
      accounted += r.submit + r.queue + r.run + r.gather;
      total += r.latency;
    }
    const double share = total > 0 ? accounted / total : 0.0;
    run.Layer("trace.accounted_share", share, "ratio",
              "submit + queue + run + gather over Submit -> Wait latency");
    run.Note(StringPrintf(
        "  trace check: submit + queue + run + gather = %.3f of the "
        "client-observed latency (must be >= %.2f; the rest is wake-up)",
        share, kAccountedFloor));
    if (share < kAccountedFloor || share > 1.0 + (1.0 - kAccountedFloor)) {
      run.Violation("trace accounting",
                    StringPrintf("serving layers account for %.3f of query "
                                 "latency, outside [%.2f, %.2f]",
                                 share, kAccountedFloor,
                                 2.0 - kAccountedFloor));
    }
    auto source = DataSource::SingleCsv(csv);
    smartmeter::table::ColumnarCache cache(spool);
    auto cache_file = source.ok() ? cache.CacheFilePath(*source)
                                  : smartmeter::Result<std::string>(
                                        source.status());
    if (!cache_file.ok()) {
      run.Violation("layer replay", cache_file.status().ToString());
    } else {
      ReplayLayers(run, *cache_file);
    }
  }
  return 0;
}

}  // namespace smbench
