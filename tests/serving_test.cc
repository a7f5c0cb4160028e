// ServingRunner behaviour: the validated request builder, admission,
// shedding with reason messages (queue-full, quota, eviction, deadline,
// cancel), priority + deficit-round-robin fairness across tenants,
// shard routing, scatter-gather parity with an unsharded run, and
// drain/shutdown safety.
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "datagen/seed_generator.h"
#include "engines/systemc_engine.h"
#include "exec/serving_runner.h"
#include "storage/csv.h"
#include "streaming/detectors.h"
#include "streaming/stream_processor.h"
#include "timeseries/calendar.h"

namespace smartmeter::exec {
namespace {

namespace fs = std::filesystem;

class ServingTest : public ::testing::Test {
 protected:
  static constexpr int kHouseholds = 8;

  static void SetUpTestSuite() {
    // One directory per process: concurrent runs (ctest -j, two build
    // trees) must not share the fixture CSV or its spools.
    dir_ = new fs::path(fs::path(::testing::TempDir()) /
                        ("serving_test_" + std::to_string(::getpid())));
    fs::create_directories(*dir_);
    datagen::SeedGeneratorOptions options;
    options.num_households = kHouseholds;
    options.hours = kHoursPerYear;
    options.seed = 99;
    MeterDataset dataset = *datagen::GenerateSeedDataset(options);
    single_csv_ = (*dir_ / "data.csv").string();
    ASSERT_TRUE(storage::WriteReadingsCsv(dataset, single_csv_).ok());
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete dir_;
  }

  /// A fresh attached SystemC session spooling under `tag`.
  static std::unique_ptr<engines::SystemCEngine> MakeSession(
      const std::string& tag) {
    auto engine = std::make_unique<engines::SystemCEngine>(
        (*dir_ / ("spool_" + tag)).string());
    EXPECT_TRUE(
        engine->Attach(*table::DataSource::SingleCsv(single_csv_)).ok());
    return engine;
  }

  static QueryRequest Histogram(const std::string& label,
                                const std::string& tenant = "test") {
    return *QueryRequest::Builder()
                .Task(engines::TaskOptions::Default(core::TaskType::kHistogram))
                .Tenant(tenant)
                .Label(label)
                .Build();
  }

  static table::DataSource Source() {
    return *table::DataSource::SingleCsv(single_csv_);
  }

  static std::string RoutingDir() { return (*dir_ / "routing").string(); }

  /// Exact equality: sharded scatter-gather must reproduce the unsharded
  /// run to the last bit, not to a tolerance.
  static void ExpectHistogramsBitIdentical(
      const engines::TaskResultSet& got, const engines::TaskResultSet& want) {
    const auto& g = got.Get<core::HistogramResult>();
    const auto& w = want.Get<core::HistogramResult>();
    ASSERT_EQ(g.size(), w.size());
    for (size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].household_id, w[i].household_id);
      EXPECT_EQ(g[i].histogram.counts, w[i].histogram.counts);
    }
  }

  static fs::path* dir_;
  static std::string single_csv_;
};

fs::path* ServingTest::dir_ = nullptr;
std::string ServingTest::single_csv_;

// ---------------------------------------------------------------------------
// Request builder validation (serving API v3)
// ---------------------------------------------------------------------------

TEST_F(ServingTest, BuilderRejectsEmptyTenant) {
  auto request = QueryRequest::Builder().Label("no-tenant").Build();
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(request.status().ToString().find("tenant"), std::string::npos);
}

TEST_F(ServingTest, BuilderRejectsNegativeDeadline) {
  auto request = QueryRequest::Builder()
                     .Tenant("t")
                     .Deadline(std::chrono::nanoseconds(-1))
                     .Build();
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(request.status().ToString().find("deadline"), std::string::npos);
}

TEST_F(ServingTest, BuilderRejectsNegativeHousehold) {
  auto request = QueryRequest::Builder().Tenant("t").Household(-7).Build();
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingTest, BuilderAcceptsFullRequest) {
  auto request = QueryRequest::Builder()
                     .Task(engines::TaskOptions::Default(
                         core::TaskType::kSimilarity))
                     .Tenant("analytics-ui")
                     .Priority(QueryPriority::kHigh)
                     .Deadline(std::chrono::milliseconds(50))
                     .Label("q17")
                     .Household(3)
                     .Build();
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->tenant(), "analytics-ui");
  EXPECT_EQ(request->priority(), QueryPriority::kHigh);
  EXPECT_EQ(request->household(), 3);
  EXPECT_EQ(request->options().task(), core::TaskType::kSimilarity);
}

// ---------------------------------------------------------------------------
// Admission and dispatch
// ---------------------------------------------------------------------------

TEST_F(ServingTest, AttachSessionValidatesThenServes) {
  engines::SystemCEngine engine((*dir_ / "spool_attach").string());
  ServingOptions options;
  options.keep_results = true;
  ServingRunner runner(options);

  // A malformed source (missing file) must be rejected before the
  // session enters the pool.
  table::DataSource missing;
  missing.layout = table::DataSource::Layout::kSingleCsv;
  missing.files = {(*dir_ / "nope.csv").string()};
  EXPECT_FALSE(runner.AttachSession(&engine, missing).ok());
  EXPECT_EQ(runner.num_sessions(), 0u);

  auto attach = runner.AttachSession(&engine, Source());
  ASSERT_TRUE(attach.ok()) << attach.status().ToString();
  EXPECT_GE(*attach, 0.0);
  EXPECT_EQ(runner.num_sessions(), 1u);

  auto ticket = runner.Submit(Histogram("attach-q"));
  ASSERT_TRUE(ticket.ok());
  const QueryOutcome& outcome = (*ticket)->Wait();
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.tenant, "test");
  runner.Shutdown();
}

TEST_F(ServingTest, ServesQueriesAcrossSessions) {
  auto e1 = MakeSession("s1");
  auto e2 = MakeSession("s2");
  ServingOptions options;
  options.keep_results = true;
  ServingRunner runner(options);
  runner.AddSession(e1.get());
  runner.AddSession(e2.get());
  EXPECT_EQ(runner.num_sessions(), 2u);

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 8; ++i) {
    auto ticket = runner.Submit(Histogram("q" + std::to_string(i)));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (auto& ticket : tickets) {
    const QueryOutcome& outcome = ticket->Wait();
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_FALSE(outcome.shed);
    EXPECT_GT(outcome.query_id, 0u);
    EXPECT_TRUE(outcome.results.Holds<core::HistogramResult>());
    EXPECT_EQ(outcome.results.size(), 8u);  // One result per household.
  }
  const ServingStats stats = runner.stats();
  EXPECT_EQ(stats.submitted, 8);
  EXPECT_EQ(stats.admitted, 8);
  EXPECT_EQ(stats.completed_ok, 8);
  EXPECT_EQ(stats.shed_queue_full, 0);
  const auto tenant = stats.tenants.find("test");
  ASSERT_NE(tenant, stats.tenants.end());
  EXPECT_EQ(tenant->second.submitted, 8);
  EXPECT_EQ(tenant->second.completed_ok, 8);
  EXPECT_EQ(tenant->second.shed, 0);
}

// ---------------------------------------------------------------------------
// Shedding, with the reason spelled out in the status message
// ---------------------------------------------------------------------------

TEST_F(ServingTest, QueueFullShedsWithResourceExhausted) {
  auto engine = MakeSession("full");
  ServingOptions options;
  options.queue_capacity = 1;
  ServingRunner runner(options);
  // No AddSession yet: nothing drains the queue, so capacity is exact.
  auto first = runner.Submit(Histogram("fits"));
  ASSERT_TRUE(first.ok());
  auto second = runner.Submit(Histogram("shed"));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().ToString().find("admission queue full"),
            std::string::npos);
  EXPECT_EQ(runner.stats().shed_queue_full, 1);

  // Once a session drains the queue, admission recovers.
  runner.AddSession(engine.get());
  (*first)->Wait();
  auto third = runner.Submit(Histogram("admitted"));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE((*third)->Wait().status.ok());
}

TEST_F(ServingTest, TenantQuotaShedsWithQuotaReason) {
  ServingOptions options;
  options.queue_capacity = 8;
  options.tenant_queue_quota = 1;
  ServingRunner runner(options);
  // No sessions: queued entries stay queued, so the quota is exact.
  auto first = runner.Submit(Histogram("fits", "greedy"));
  ASSERT_TRUE(first.ok());
  auto second = runner.Submit(Histogram("over", "greedy"));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().ToString().find("over queue quota"),
            std::string::npos);
  // Another tenant is unaffected by greedy's quota.
  auto other = runner.Submit(Histogram("fine", "polite"));
  EXPECT_TRUE(other.ok());
  const ServingStats stats = runner.stats();
  EXPECT_EQ(stats.shed_quota, 1);
  EXPECT_EQ(stats.tenants.at("greedy").shed, 1);
  EXPECT_EQ(stats.tenants.at("polite").shed, 0);
  runner.Shutdown();
}

TEST_F(ServingTest, FullQueueEvictsOverShareTenant) {
  ServingOptions options;
  options.queue_capacity = 2;
  ServingRunner runner(options);
  // Hostile fills the whole queue before polite shows up.
  auto h1 = runner.Submit(Histogram("h1", "hostile"));
  auto h2 = runner.Submit(Histogram("h2", "hostile"));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  // Polite's submission evicts hostile's newest ticket instead of
  // shedding polite: hostile holds strictly more of the queue.
  auto p1 = runner.Submit(Histogram("p1", "polite"));
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  const QueryOutcome& evicted = (*h2)->Wait();
  EXPECT_TRUE(evicted.shed);
  EXPECT_EQ(evicted.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(evicted.status.ToString().find("evicted"), std::string::npos);
  // Hostile resubmitting now sheds: it no longer out-holds polite.
  auto h3 = runner.Submit(Histogram("h3", "hostile"));
  ASSERT_FALSE(h3.ok());
  EXPECT_NE(h3.status().ToString().find("admission queue full"),
            std::string::npos);
  const ServingStats stats = runner.stats();
  EXPECT_EQ(stats.shed_evicted, 1);
  EXPECT_EQ(stats.shed_queue_full, 1);
  runner.Shutdown();
}

TEST_F(ServingTest, QueuedDeadlineShedsWithoutRunning) {
  auto engine = MakeSession("deadline");
  ServingRunner runner(ServingOptions{});
  runner.AddSession(engine.get());

  auto request = QueryRequest::Builder()
                     .Task(engines::TaskOptions::Default(
                         core::TaskType::kHistogram))
                     .Tenant("test")
                     .Label("tight")
                     .Deadline(std::chrono::nanoseconds(1))
                     .Build();
  ASSERT_TRUE(request.ok());
  auto ticket = runner.Submit(*request);
  ASSERT_TRUE(ticket.ok());
  const QueryOutcome& outcome = (*ticket)->Wait();
  EXPECT_TRUE(outcome.shed);
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(outcome.status.ToString().find("deadline expired while queued"),
            std::string::npos);
  EXPECT_EQ(runner.stats().shed_deadline, 1);
}

TEST_F(ServingTest, CancelledTicketShedsAsCancelled) {
  auto engine = MakeSession("cancel");
  ServingRunner runner(ServingOptions{});
  // Cancel before adding the session, so the query is still queued.
  auto ticket = runner.Submit(Histogram("doomed"));
  ASSERT_TRUE(ticket.ok());
  (*ticket)->RequestCancel();
  runner.AddSession(engine.get());
  const QueryOutcome& outcome = (*ticket)->Wait();
  EXPECT_TRUE(outcome.shed);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_NE(outcome.status.ToString().find("cancelled while queued"),
            std::string::npos);
  EXPECT_EQ(runner.stats().shed_cancelled, 1);
}

// ---------------------------------------------------------------------------
// Scheduling: priority classes and tenant fair share
// ---------------------------------------------------------------------------

TEST_F(ServingTest, HighPriorityDispatchesFirst) {
  auto engine = MakeSession("prio");
  ServingRunner runner(ServingOptions{});
  // Queue builds up before any session exists, so ordering is decided
  // purely by priority class.
  const engines::TaskOptions task =
      engines::TaskOptions::Default(core::TaskType::kHistogram);
  auto low = QueryRequest::Builder()
                 .Task(task)
                 .Tenant("test")
                 .Label("low")
                 .Priority(QueryPriority::kLow)
                 .Build();
  auto high = QueryRequest::Builder()
                  .Task(task)
                  .Tenant("test")
                  .Label("high")
                  .Priority(QueryPriority::kHigh)
                  .Build();
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  auto low_ticket = runner.Submit(*low);
  auto high_ticket = runner.Submit(*high);
  ASSERT_TRUE(low_ticket.ok());
  ASSERT_TRUE(high_ticket.ok());
  runner.AddSession(engine.get());
  runner.Drain();
  const QueryOutcome& low_out = (*low_ticket)->Wait();
  const QueryOutcome& high_out = (*high_ticket)->Wait();
  ASSERT_TRUE(low_out.status.ok());
  ASSERT_TRUE(high_out.status.ok());
  // The high-priority query was submitted later but dispatched first:
  // it spent less time queued despite the single session.
  EXPECT_LT(high_out.queue_seconds, low_out.queue_seconds);
}

TEST_F(ServingTest, HostileTenantCannotStarvePoliteTenant) {
  auto engine = MakeSession("fair");
  ServingOptions options;
  options.queue_capacity = 16;
  options.tenant_queue_quota = 8;
  ServingRunner runner(options);
  // Build the whole backlog before any session exists so admission
  // decisions are deterministic: hostile floods 20 queries (8 admitted,
  // 12 over quota), then polite submits its 5.
  std::vector<std::shared_ptr<QueryTicket>> hostile;
  int hostile_shed_at_submit = 0;
  for (int i = 0; i < 20; ++i) {
    auto ticket = runner.Submit(Histogram("h" + std::to_string(i), "hostile"));
    if (ticket.ok()) {
      hostile.push_back(*ticket);
    } else {
      ++hostile_shed_at_submit;
    }
  }
  std::vector<std::shared_ptr<QueryTicket>> polite;
  for (int i = 0; i < 5; ++i) {
    auto ticket = runner.Submit(Histogram("p" + std::to_string(i), "polite"));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    polite.push_back(*ticket);
  }
  runner.AddSession(engine.get());
  runner.Drain();
  for (auto& ticket : polite) {
    EXPECT_TRUE(ticket->Wait().status.ok());
  }
  const ServingStats stats = runner.stats();
  const TenantServingStats& polite_stats = stats.tenants.at("polite");
  const TenantServingStats& hostile_stats = stats.tenants.at("hostile");
  // The fairness bound under test: a flooding tenant absorbs all the
  // shedding; the well-behaved tenant's shed rate stays at zero.
  EXPECT_EQ(polite_stats.shed, 0);
  EXPECT_EQ(polite_stats.completed_ok, 5);
  EXPECT_EQ(hostile_shed_at_submit, 12);
  EXPECT_GE(hostile_stats.shed, 12);
  EXPECT_GE(static_cast<double>(hostile_stats.shed) /
                static_cast<double>(hostile_stats.submitted),
            0.5);
}

TEST_F(ServingTest, TenantWeightsGrantProportionalShare) {
  auto engine = MakeSession("weights");
  ServingOptions options;
  options.queue_capacity = 32;
  options.fair_share_quantum = 2;
  options.tenant_weights["heavy"] = 3;
  ServingRunner runner(options);
  // Backlog first, then one session: DRR order is deterministic.
  std::vector<std::shared_ptr<QueryTicket>> heavy;
  std::vector<std::shared_ptr<QueryTicket>> light;
  for (int i = 0; i < 6; ++i) {
    auto ticket = runner.Submit(Histogram("w" + std::to_string(i), "heavy"));
    ASSERT_TRUE(ticket.ok());
    heavy.push_back(*ticket);
  }
  for (int i = 0; i < 6; ++i) {
    auto ticket = runner.Submit(Histogram("l" + std::to_string(i), "light"));
    ASSERT_TRUE(ticket.ok());
    light.push_back(*ticket);
  }
  runner.AddSession(engine.get());
  runner.Drain();
  // heavy (weight 3, quantum 2) drains all 6 in its first visit; light
  // only then starts, so every light query waited at least as long as
  // the slowest heavy one.
  double max_heavy_queue = 0.0;
  for (auto& ticket : heavy) {
    ASSERT_TRUE(ticket->Wait().status.ok());
    max_heavy_queue = std::max(max_heavy_queue, ticket->Wait().queue_seconds);
  }
  for (auto& ticket : light) {
    ASSERT_TRUE(ticket->Wait().status.ok());
    EXPECT_GE(ticket->Wait().queue_seconds, max_heavy_queue);
  }
}

// ---------------------------------------------------------------------------
// Shard routing and scatter-gather parity
// ---------------------------------------------------------------------------

TEST_F(ServingTest, RoutedQueryRequiresRoutingTable) {
  ServingRunner runner(ServingOptions{});
  auto ticket = runner.Submit(Histogram("unroutable") /* household unset */);
  ASSERT_TRUE(ticket.ok());  // All-households on one shard needs no routing.
  auto request =
      QueryRequest::Builder()
          .Task(engines::TaskOptions::Default(core::TaskType::kHistogram))
          .Tenant("test")
          .Label("routed")
          .Household(1)
          .Build();
  ASSERT_TRUE(request.ok());
  auto routed = runner.Submit(*request);
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kInvalidArgument);
  runner.Shutdown();
}

TEST_F(ServingTest, RoutedQueryRejectsUnknownHousehold) {
  ServingRunner runner(ServingOptions{});
  ASSERT_TRUE(runner.OpenRouting(Source(), RoutingDir()).ok());
  auto request =
      QueryRequest::Builder()
          .Task(engines::TaskOptions::Default(core::TaskType::kHistogram))
          .Tenant("test")
          .Label("ghost")
          .Household(12345)
          .Build();
  ASSERT_TRUE(request.ok());
  auto ticket = runner.Submit(*request);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kNotFound);
  runner.Shutdown();
}

TEST_F(ServingTest, RoutedQueryFiltersResultsToHousehold) {
  auto e0 = MakeSession("route0");
  auto e1 = MakeSession("route1");
  ServingOptions options;
  options.num_shards = 2;
  options.keep_results = true;
  ServingRunner runner(options);
  ASSERT_TRUE(runner.OpenRouting(Source(), RoutingDir()).ok());
  runner.AddSession(e0.get());
  runner.AddSession(e1.get());

  // An unsharded all-households baseline supplies the expected rows.
  auto u = MakeSession("route_base");
  ServingOptions unsharded;
  unsharded.keep_results = true;
  ServingRunner baseline(unsharded);
  baseline.AddSession(u.get());
  auto base_ticket = baseline.Submit(Histogram("base"));
  ASSERT_TRUE(base_ticket.ok());
  const QueryOutcome& base = (*base_ticket)->Wait();
  ASSERT_TRUE(base.status.ok());
  const auto& all = base.results.Get<core::HistogramResult>();
  ASSERT_EQ(all.size(), static_cast<size_t>(kHouseholds));

  // Both the first and the last household route correctly (they live on
  // different shards) and come back filtered to one bit-identical row.
  for (const core::HistogramResult& expected : {all.front(), all.back()}) {
    auto request =
        QueryRequest::Builder()
            .Task(engines::TaskOptions::Default(core::TaskType::kHistogram))
            .Tenant("test")
            .Label("h" + std::to_string(expected.household_id))
            .Household(expected.household_id)
            .Build();
    ASSERT_TRUE(request.ok());
    auto ticket = runner.Submit(*request);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    const QueryOutcome& outcome = (*ticket)->Wait();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    const auto& rows = outcome.results.Get<core::HistogramResult>();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].household_id, expected.household_id);
    EXPECT_EQ(rows[0].histogram.counts, expected.histogram.counts);
  }
  runner.Shutdown();
  baseline.Shutdown();
}

TEST_F(ServingTest, ShardedScatterBitIdenticalToUnsharded) {
  // Four shards, one session each, vs a single unsharded session: the
  // all-households scatter-gather must reproduce the unsharded result
  // bit for bit (RunGather's household merge restores batch order).
  std::vector<std::unique_ptr<engines::SystemCEngine>> sharded_engines;
  ServingOptions options;
  options.num_shards = 4;
  options.keep_results = true;
  ServingRunner sharded(options);
  ASSERT_TRUE(sharded.OpenRouting(Source(), RoutingDir()).ok());
  for (int s = 0; s < 4; ++s) {
    sharded_engines.push_back(MakeSession("scat" + std::to_string(s)));
    sharded.AddSession(sharded_engines.back().get());
  }
  auto u = MakeSession("scat_base");
  ServingOptions unsharded;
  unsharded.keep_results = true;
  ServingRunner baseline(unsharded);
  baseline.AddSession(u.get());

  auto sharded_ticket = sharded.Submit(Histogram("scatter"));
  auto baseline_ticket = baseline.Submit(Histogram("base"));
  ASSERT_TRUE(sharded_ticket.ok()) << sharded_ticket.status().ToString();
  ASSERT_TRUE(baseline_ticket.ok());
  const QueryOutcome& got = (*sharded_ticket)->Wait();
  const QueryOutcome& want = (*baseline_ticket)->Wait();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ExpectHistogramsBitIdentical(got.results, want.results);

  // The scatter outcome reports the synthetic fan-out stage followed by
  // the gather plan's rows, and counts once in the runner's stats.
  ASSERT_FALSE(got.stages.empty());
  EXPECT_EQ(got.stages[0].name, "scatter");
  EXPECT_EQ(got.stages[0].partitions, 4);
  const ServingStats stats = sharded.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed_ok, 1);
  sharded.Shutdown();
  baseline.Shutdown();
}

TEST_F(ServingTest, ShardedSimilarityBitIdenticalToUnsharded) {
  // Similarity is the cross-household task: each shard scores only its
  // own query rows but against ALL candidates, so the gathered result
  // must match the unsharded run exactly.
  std::vector<std::unique_ptr<engines::SystemCEngine>> sharded_engines;
  ServingOptions options;
  options.num_shards = 4;
  options.keep_results = true;
  ServingRunner sharded(options);
  ASSERT_TRUE(sharded.OpenRouting(Source(), RoutingDir()).ok());
  for (int s = 0; s < 4; ++s) {
    sharded_engines.push_back(MakeSession("sim" + std::to_string(s)));
    sharded.AddSession(sharded_engines.back().get());
  }
  auto u = MakeSession("sim_base");
  ServingOptions unsharded;
  unsharded.keep_results = true;
  ServingRunner baseline(unsharded);
  baseline.AddSession(u.get());

  auto MakeSimilarity = [](const std::string& label) {
    return *QueryRequest::Builder()
                .Task(engines::TaskOptions::Default(
                    core::TaskType::kSimilarity))
                .Tenant("test")
                .Label(label)
                .Build();
  };
  auto sharded_ticket = sharded.Submit(MakeSimilarity("scatter-sim"));
  auto baseline_ticket = baseline.Submit(MakeSimilarity("base-sim"));
  ASSERT_TRUE(sharded_ticket.ok()) << sharded_ticket.status().ToString();
  ASSERT_TRUE(baseline_ticket.ok());
  const QueryOutcome& got = (*sharded_ticket)->Wait();
  const QueryOutcome& want = (*baseline_ticket)->Wait();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  const auto& g = got.results.Get<core::SimilarityResult>();
  const auto& w = want.results.Get<core::SimilarityResult>();
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].household_id, w[i].household_id);
    ASSERT_EQ(g[i].matches.size(), w[i].matches.size());
    for (size_t m = 0; m < g[i].matches.size(); ++m) {
      EXPECT_EQ(g[i].matches[m].household_id, w[i].matches[m].household_id);
      EXPECT_EQ(g[i].matches[m].cosine, w[i].matches[m].cosine);
    }
  }
  sharded.Shutdown();
  baseline.Shutdown();
}

// ---------------------------------------------------------------------------
// Alert surface (lambda speed layer -> serving queries)
// ---------------------------------------------------------------------------

TEST_F(ServingTest, QueryAlertsRequiresAttachedLog) {
  ServingRunner runner(ServingOptions{});
  auto alerts = runner.QueryAlerts(streaming::AlertQuery{});
  ASSERT_FALSE(alerts.ok());
  EXPECT_EQ(alerts.status().code(), StatusCode::kNotFound);
  runner.Shutdown();
}

TEST_F(ServingTest, QueryAlertsServesStreamDetections) {
  // End-to-end speed-layer wiring: the stream processor's detector
  // alerts land in an AlertLog, and serving clients read them through
  // the same runner that answers routed queries.
  streaming::AlertLog log;
  streaming::StreamProcessor processor;
  processor.AddDetectorPrototype(std::make_unique<streaming::SpikeDetector>());
  processor.SetAlertSink(
      [&log](const streaming::Alert& alert) { log.Record(alert); });
  for (int64_t h = 0; h < 60; ++h) {
    double kwh = 0.5;
    if (h == 40) kwh = 9.0;  // household 1 spikes once
    ASSERT_TRUE(processor.Process({1, h, kwh, 10.0}).ok());
    ASSERT_TRUE(processor.Process({2, h, 0.5, 10.0}).ok());
  }
  ASSERT_GE(log.total_recorded(), 1);

  ServingRunner runner(ServingOptions{});
  runner.AttachAlertLog(&log);
  streaming::AlertQuery query;
  query.household_id = 1;
  auto alerts = runner.QueryAlerts(query);
  ASSERT_TRUE(alerts.ok()) << alerts.status().ToString();
  ASSERT_FALSE(alerts->empty());
  EXPECT_EQ((*alerts)[0].household_id, 1);
  EXPECT_EQ((*alerts)[0].hour, 40);

  // The quiet household has nothing on file.
  query.household_id = 2;
  auto quiet = runner.QueryAlerts(query);
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->empty());
  runner.Shutdown();
}

// ---------------------------------------------------------------------------
// Drain / shutdown safety
// ---------------------------------------------------------------------------

TEST_F(ServingTest, ShutdownResolvesQueuedTickets) {
  ServingRunner runner(ServingOptions{});
  // Never add a session: queued queries must still resolve on Shutdown
  // instead of hanging their waiters.
  auto ticket = runner.Submit(Histogram("stranded"));
  ASSERT_TRUE(ticket.ok());
  runner.Shutdown();
  const QueryOutcome& outcome = (*ticket)->Wait();
  EXPECT_TRUE(outcome.shed);
  EXPECT_FALSE(outcome.status.ok());

  // Submit after shutdown sheds immediately.
  auto late = runner.Submit(Histogram("late"));
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ServingTest, DrainWaitsForAllAdmitted) {
  auto e1 = MakeSession("d1");
  auto e2 = MakeSession("d2");
  ServingRunner runner(ServingOptions{});
  runner.AddSession(e1.get());
  runner.AddSession(e2.get());
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 12; ++i) {
    auto ticket = runner.Submit(Histogram("drain" + std::to_string(i)));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  runner.Drain();
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket->done());
  }
  EXPECT_EQ(runner.stats().completed_ok, 12);
}

TEST_F(ServingTest, ConcurrentClientsAllResolve) {
  auto e1 = MakeSession("c1");
  auto e2 = MakeSession("c2");
  ServingOptions options;
  options.queue_capacity = 256;
  ServingRunner runner(options);
  runner.AddSession(e1.get());
  runner.AddSession(e2.get());
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&runner, &ok, c] {
      for (int q = 0; q < 5; ++q) {
        auto ticket = runner.Submit(Histogram(
            "c" + std::to_string(c) + "/q" + std::to_string(q),
            "tenant-" + std::to_string(c)));
        if (ticket.ok() && (*ticket)->Wait().status.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), 20);
  EXPECT_EQ(runner.stats().completed_ok, 20);
}

}  // namespace
}  // namespace smartmeter::exec
