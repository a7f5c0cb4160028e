#include <atomic>
#include <clocale>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace smartmeter::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterSumsConcurrentIncrements) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(MetricsTest, GetCounterReturnsStablePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("dup");
  Counter* b = registry.GetCounter("dup");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3);
}

TEST(MetricsTest, GaugeSetAddAndUpdateMax) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(5);
  gauge->Add(2);
  EXPECT_EQ(gauge->Value(), 7);
  gauge->UpdateMax(3);  // Lower: no change.
  EXPECT_EQ(gauge->Value(), 7);
  gauge->UpdateMax(11);
  EXPECT_EQ(gauge->Value(), 11);
}

TEST(MetricsTest, GaugeUpdateMaxConcurrentKeepsMaximum) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.peak");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([gauge, t] {
      for (int i = 0; i < 1000; ++i) gauge->UpdateMax(t * 1000 + i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gauge->Value(), (kThreads - 1) * 1000 + 999);
}

TEST(MetricsTest, HistogramRecordsConcurrently) {
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.GetHistogram("test.latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist] {
      for (int i = 0; i < kPerThread; ++i) hist->Record(0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist->TotalCount(), kThreads * kPerThread);
  EXPECT_NEAR(hist->TotalSeconds(), kThreads * kPerThread * 0.001, 1.0);
  int64_t bucket_total = 0;
  for (int64_t c : hist->BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist->TotalCount());
}

TEST(MetricsTest, HistogramBucketsAreExponential) {
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.GetHistogram("test.buckets");
  hist->Record(0.5e-6);   // < 1 us -> bucket 0.
  hist->Record(3e-6);     // < 4 us -> bucket 2.
  hist->Record(1000.0);   // beyond the largest bound -> overflow bucket.
  std::vector<int64_t> counts = hist->BucketCounts();
  ASSERT_EQ(counts.size(), LatencyHistogram::kBuckets);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[LatencyHistogram::kBuckets - 1], 1);
  EXPECT_GT(LatencyHistogram::BucketUpperSeconds(1),
            LatencyHistogram::BucketUpperSeconds(0));
}

TEST(MetricsTest, SnapshotAndResetKeepRegistrations) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(10);
  registry.GetGauge("g")->Set(4);
  registry.GetHistogram("h")->Record(0.01);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "c");
  EXPECT_EQ(snap.counters[0].value, 10);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);

  Counter* before = registry.GetCounter("c");
  registry.Reset();
  EXPECT_EQ(before, registry.GetCounter("c"));  // Pointer stays valid.
  EXPECT_EQ(before->Value(), 0);
  EXPECT_EQ(registry.Snapshot().counters.size(), 1u);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceTest, SpanScopeRecordsNestingDepth) {
  TraceBuffer buffer(64);
  {
    SpanScope outer("outer", &buffer);
    {
      SpanScope inner("inner", &buffer);
      { SpanScope leaf("leaf", &buffer); }
    }
  }
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Spans close innermost-first.
  EXPECT_STREQ(events[0].name, "leaf");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.end_ns, e.begin_ns);
  }
  // The outer span brackets the inner ones.
  EXPECT_LE(events[2].begin_ns, events[0].begin_ns);
  EXPECT_GE(events[2].end_ns, events[1].end_ns);
}

TEST(TraceTest, RingOverwritesOldestAndCountsDropped) {
  TraceBuffer buffer(4);
  for (int i = 0; i < 10; ++i) {
    std::string name = "span" + std::to_string(i);
    buffer.Record(name.c_str(), i, i + 1, 0, 0);
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 6);
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events.front().name, "span6");  // Oldest retained.
  EXPECT_STREQ(events.back().name, "span9");
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0);
}

TEST(TraceTest, LongNamesAreTruncatedNotOverrun) {
  TraceBuffer buffer(4);
  const std::string longname(100, 'x');
  buffer.Record(longname.c_str(), 0, 1, 0, 0);
  std::vector<TraceEvent> events = buffer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), std::string(TraceEvent::kMaxName, 'x'));
}

TEST(TraceTest, MacroRecordsIntoGlobalBuffer) {
  TraceBuffer::Global().Clear();
  { SM_TRACE_SPAN("test.macro_span"); }
  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.macro_span");
  TraceBuffer::Global().Clear();
}

TEST(TraceTest, ConcurrentSpansAllRetained) {
  TraceBuffer buffer(1024);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buffer] {
      for (int i = 0; i < kPerThread; ++i) {
        SpanScope span("worker", &buffer);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(buffer.size(), size_t{kThreads * kPerThread});
  EXPECT_EQ(buffer.dropped(), 0);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue("bench \"smoke\"\n"));
  obj.Set("count", JsonValue(int64_t{42}));
  obj.Set("ratio", JsonValue(0.25));
  obj.Set("ok", JsonValue(true));
  obj.Set("missing", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue(int64_t{1}));
  arr.Append(JsonValue("two"));
  obj.Set("items", std::move(arr));

  const std::string text = obj.Dump();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed, obj);
  EXPECT_EQ(parsed.Get("count").AsInt(), 42);
  EXPECT_EQ(parsed.Get("name").AsString(), "bench \"smoke\"\n");
  EXPECT_DOUBLE_EQ(parsed.Get("ratio").AsDouble(), 0.25);
  EXPECT_TRUE(parsed.Get("ok").AsBool());
  EXPECT_TRUE(parsed.Get("missing").is_null());
  EXPECT_EQ(parsed.Get("items").size(), 2u);
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zeta", JsonValue(1));
  obj.Set("alpha", JsonValue(2));
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "zeta");
  EXPECT_EQ(obj.members()[1].first, "alpha");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonValue::Parse("[1, 2", &out, &error));
  EXPECT_FALSE(JsonValue::Parse("", &out, &error));
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &out, &error));
}

TEST(JsonTest, IntegersPrintWithoutFraction) {
  JsonValue v(int64_t{1234567});
  EXPECT_EQ(v.Dump(), "1234567\n");
}

TEST(JsonTest, NumberParsingIsLocaleIndependent) {
  // The parser used std::strtod, which honours the host locale: under a
  // ',' decimal separator (de_DE et al.) it stops at the '.' and
  // silently truncates 3.14 to 3. from_chars always speaks the "C"
  // locale. If the container lacks the German locale the setlocale
  // calls fail and this degrades to a plain parse check.
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    std::setlocale(LC_NUMERIC, "de_DE");
  }
  JsonValue out;
  std::string error;
  const bool ok = JsonValue::Parse("[3.14, -2.5e3, 0.125]", &out, &error);
  std::setlocale(LC_NUMERIC, "C");
  ASSERT_TRUE(ok) << error;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out.items()[0].AsDouble(), 3.14);
  EXPECT_DOUBLE_EQ(out.items()[1].AsDouble(), -2500.0);
  EXPECT_DOUBLE_EQ(out.items()[2].AsDouble(), 0.125);
}

TEST(JsonTest, NumberParsingRejectsLeadingPlus) {
  // JSON forbids a leading '+'; strtod used to accept it.
  JsonValue out;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("+3.5", &out, &error));
}

// ---------------------------------------------------------------------------
// BenchReport
// ---------------------------------------------------------------------------

RunRecord MakeRecord() {
  RunRecord run;
  run.engine = "system-c";
  run.task = "histogram";
  run.layout = "single-csv";
  run.threads = 4;
  run.warm = true;
  run.simulated = false;
  run.attach_seconds = 0.125;
  run.warmup_seconds = 0.5;
  run.task_seconds = 1.75;
  run.memory_bytes = 1 << 20;
  run.quantile_seconds = 0.25;
  run.regression_seconds = 1.0;
  run.adjust_seconds = 0.5;
  // One healthy stage (fault keys omitted from the JSON) and one that
  // saw injected retries/stragglers/speculation.
  run.stages.push_back({"scan", 0.5, 3});
  run.stages.push_back({"kernel", 1.25, 8, /*retries=*/2, /*stragglers=*/1,
                        /*speculative_launched=*/1, /*speculative_wins=*/1});
  return run;
}

TEST(BenchReportTest, JsonRoundTripPreservesEverything) {
  BenchReport report;
  report.set_label("obs_test");
  report.AddRun(MakeRecord());

  MetricsSnapshot metrics;
  metrics.counters.push_back({"csv.rows_scanned", 8760});
  metrics.gauges.push_back({"threadpool.queue_depth_peak", 12});
  MetricsSnapshot::HistogramSample hist;
  hist.name = "threadpool.task_seconds";
  hist.count = 3;
  hist.total_seconds = 0.75;
  hist.bucket_counts = {0, 1, 2};
  metrics.histograms.push_back(std::move(hist));
  report.set_metrics(std::move(metrics));

  TraceEvent span;
  std::snprintf(span.name, sizeof(span.name), "bench.task");
  span.begin_ns = 100;
  span.end_ns = 2500;
  span.thread_id = 1;
  span.depth = 0;
  report.set_spans({span});

  JsonValue json = report.ToJson();
  EXPECT_EQ(json.Get("schema").AsString(), "smartmeter-bench-report/v1");

  BenchReport restored;
  std::string error;
  ASSERT_TRUE(BenchReport::FromJson(json, &restored, &error)) << error;
  EXPECT_EQ(restored.label(), "obs_test");
  ASSERT_EQ(restored.runs().size(), 1u);
  const RunRecord& run = restored.runs()[0];
  EXPECT_EQ(run.engine, "system-c");
  EXPECT_EQ(run.task, "histogram");
  EXPECT_EQ(run.layout, "single-csv");
  EXPECT_EQ(run.threads, 4);
  EXPECT_TRUE(run.warm);
  EXPECT_FALSE(run.simulated);
  EXPECT_DOUBLE_EQ(run.task_seconds, 1.75);
  EXPECT_EQ(run.memory_bytes, 1 << 20);
  EXPECT_DOUBLE_EQ(run.regression_seconds, 1.0);
  ASSERT_EQ(run.stages.size(), 2u);
  EXPECT_EQ(run.stages[0].name, "scan");
  EXPECT_EQ(run.stages[0].retries, 0);
  EXPECT_EQ(run.stages[1].name, "kernel");
  EXPECT_DOUBLE_EQ(run.stages[1].seconds, 1.25);
  EXPECT_EQ(run.stages[1].retries, 2);
  EXPECT_EQ(run.stages[1].stragglers, 1);
  EXPECT_EQ(run.stages[1].speculative_launched, 1);
  EXPECT_EQ(run.stages[1].speculative_wins, 1);
  // Healthy stages serialize without the fault keys at all.
  const JsonValue& scan_row =
      json.Get("runs").items()[0].Get("stages").items()[0];
  EXPECT_FALSE(scan_row.Has("retries"));
  EXPECT_FALSE(scan_row.Has("stragglers"));
  ASSERT_EQ(restored.metrics().counters.size(), 1u);
  EXPECT_EQ(restored.metrics().counters[0].value, 8760);
  ASSERT_EQ(restored.metrics().histograms.size(), 1u);
  EXPECT_EQ(restored.metrics().histograms[0].bucket_counts.size(), 3u);
  ASSERT_EQ(restored.spans().size(), 1u);
  EXPECT_STREQ(restored.spans()[0].name, "bench.task");
  EXPECT_EQ(restored.spans()[0].end_ns, 2500);

  // Serializing the restored report reproduces the original text.
  EXPECT_EQ(restored.ToJsonString(), report.ToJsonString());
}

TEST(BenchReportTest, ServingTenantRowsRoundTrip) {
  BenchReport report;
  RunRecord run = MakeRecord();
  run.outcome = "ok";
  run.clients = 3;
  run.queries_ok = 90;
  run.queries_shed = 10;
  run.p99_seconds = 0.25;
  run.queries_per_second = 120.0;
  run.shards = 4;
  run.tenants.push_back({"hostile", 60, 40, 20, 20.0 / 60.0, 0.4});
  run.tenants.push_back({"polite", 40, 40, 0, 0.0, 0.1});
  report.AddRun(run);

  JsonValue json = report.ToJson();
  BenchReport restored;
  std::string error;
  ASSERT_TRUE(BenchReport::FromJson(json, &restored, &error)) << error;
  ASSERT_EQ(restored.runs().size(), 1u);
  const RunRecord& out = restored.runs()[0];
  EXPECT_EQ(out.shards, 4);
  ASSERT_EQ(out.tenants.size(), 2u);
  EXPECT_EQ(out.tenants[0].tenant, "hostile");
  EXPECT_EQ(out.tenants[0].queries_shed, 20);
  EXPECT_DOUBLE_EQ(out.tenants[0].shed_rate, 20.0 / 60.0);
  EXPECT_EQ(out.tenants[1].tenant, "polite");
  EXPECT_DOUBLE_EQ(out.tenants[1].p99_seconds, 0.1);
  EXPECT_EQ(restored.ToJsonString(), report.ToJsonString());
}

TEST(BenchReportTest, ServingBlockWithoutShardingKeysRoundTrips) {
  // A pre-sharding serving record must serialize without the new keys.
  BenchReport report;
  RunRecord run = MakeRecord();
  run.outcome = "ok";
  run.queries_ok = 5;
  report.AddRun(run);
  JsonValue json = report.ToJson();
  const JsonValue& serving = json.Get("runs").items()[0].Get("serving");
  EXPECT_FALSE(serving.Has("shards"));
  EXPECT_FALSE(serving.Has("tenants"));
  BenchReport restored;
  std::string error;
  ASSERT_TRUE(BenchReport::FromJson(json, &restored, &error)) << error;
  EXPECT_EQ(restored.runs()[0].shards, 0);
  EXPECT_TRUE(restored.runs()[0].tenants.empty());
}

TEST(BenchReportTest, IngestBlockRoundTrips) {
  BenchReport report;
  RunRecord run = MakeRecord();
  run.ingest_rate = 12500.0;
  run.freshness_p50_seconds = 0.012;
  run.freshness_p99_seconds = 0.045;
  report.AddRun(run);

  JsonValue json = report.ToJson();
  const JsonValue& ingest = json.Get("runs").items()[0].Get("ingest");
  EXPECT_DOUBLE_EQ(ingest.Get("rate").AsDouble(), 12500.0);
  BenchReport restored;
  std::string error;
  ASSERT_TRUE(BenchReport::FromJson(json, &restored, &error)) << error;
  const RunRecord& out = restored.runs()[0];
  EXPECT_DOUBLE_EQ(out.ingest_rate, 12500.0);
  EXPECT_DOUBLE_EQ(out.freshness_p50_seconds, 0.012);
  EXPECT_DOUBLE_EQ(out.freshness_p99_seconds, 0.045);
  EXPECT_EQ(restored.ToJsonString(), report.ToJsonString());
}

TEST(BenchReportTest, BatchRunsOmitIngestBlock) {
  // Batch-only records must serialize byte-identically to pre-ingest
  // reports: no "ingest" key at all.
  BenchReport report;
  report.AddRun(MakeRecord());
  JsonValue json = report.ToJson();
  EXPECT_FALSE(json.Get("runs").items()[0].Has("ingest"));
  BenchReport restored;
  std::string error;
  ASSERT_TRUE(BenchReport::FromJson(json, &restored, &error)) << error;
  EXPECT_DOUBLE_EQ(restored.runs()[0].ingest_rate, 0.0);
  EXPECT_DOUBLE_EQ(restored.runs()[0].freshness_p99_seconds, 0.0);
}

TEST(BenchReportTest, HouseholdsKeyRoundTripsAndIsOmittedWhenZero) {
  BenchReport report;
  RunRecord sized = MakeRecord();
  sized.households = 5460;
  report.AddRun(sized);
  report.AddRun(MakeRecord());
  JsonValue json = report.ToJson();
  EXPECT_EQ(json.Get("runs").items()[0].Get("households").AsInt(), 5460);
  EXPECT_FALSE(json.Get("runs").items()[1].Has("households"));
  BenchReport restored;
  std::string error;
  ASSERT_TRUE(BenchReport::FromJson(json, &restored, &error)) << error;
  EXPECT_EQ(restored.runs()[0].households, 5460);
  EXPECT_EQ(restored.runs()[1].households, 0);
  EXPECT_EQ(restored.ToJsonString(), report.ToJsonString());
}

TEST(BenchReportTest, FromJsonRejectsWrongSchema) {
  JsonValue json = JsonValue::Object();
  json.Set("schema", JsonValue("not-a-bench-report"));
  BenchReport out;
  std::string error;
  EXPECT_FALSE(BenchReport::FromJson(json, &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BenchReportTest, WriteAndReadFile) {
  BenchReport report;
  report.set_label("file_test");
  report.AddRun(MakeRecord());
  const std::string path =
      testing::TempDir() + "/obs_test_report.json";
  std::string error;
  ASSERT_TRUE(report.WriteFile(path, &error)) << error;
  BenchReport restored;
  ASSERT_TRUE(BenchReport::ReadFile(path, &restored, &error)) << error;
  EXPECT_EQ(restored.label(), "file_test");
  ASSERT_EQ(restored.runs().size(), 1u);
  EXPECT_DOUBLE_EQ(restored.runs()[0].task_seconds, 1.75);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smartmeter::obs
