// Physical-plan IR tests: the five engines' plan paths produce
// bit-identical results over the same input bytes, plan shapes are
// stable (DebugString goldens), per-stage timings are reported, and a
// stopped QueryContext aborts a plan at a partition boundary.
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/seed_generator.h"
#include "engines/engine_util.h"
#include "engines/hive_engine.h"
#include "engines/madlib_engine.h"
#include "engines/matlab_engine.h"
#include "engines/spark_engine.h"
#include "engines/systemc_engine.h"
#include "exec/plan.h"
#include "exec/plan_executor.h"
#include "exec/query_context.h"
#include "obs/metrics.h"
#include "storage/column_store.h"
#include "table/delta_store.h"
#include "storage/csv.h"
#include "timeseries/calendar.h"

namespace smartmeter::engines {
namespace {

namespace fs = std::filesystem;

using table::DataSource;

class PlanTest : public ::testing::Test {
 protected:
  static constexpr int kHouseholds = 6;

  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::path(::testing::TempDir()) / "plan_test");
    fs::create_directories(*dir_);
    datagen::SeedGeneratorOptions options;
    options.num_households = kHouseholds;
    options.hours = kHoursPerYear;
    options.seed = 411;
    MeterDataset dataset = *datagen::GenerateSeedDataset(options);
    single_csv_ = (*dir_ / "data.csv").string();
    ASSERT_TRUE(storage::WriteReadingsCsv(dataset, single_csv_).ok());
    auto part =
        storage::WritePartitionedCsv(dataset, (*dir_ / "part").string());
    ASSERT_TRUE(part.ok());
    partitioned_files_ = new std::vector<std::string>(std::move(*part));
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete partitioned_files_;
    delete dir_;
  }

  static cluster::ClusterConfig SmallCluster() {
    cluster::ClusterConfig config;
    config.num_nodes = 4;
    config.slots_per_node = 2;
    return config;
  }

  static SparkEngine::Options SparkOptions(int64_t block_bytes) {
    SparkEngine::Options options;
    options.cluster = SmallCluster();
    options.block_bytes = block_bytes;
    return options;
  }

  static HiveEngine::Options HiveOptions(int64_t block_bytes) {
    HiveEngine::Options options;
    options.cluster = SmallCluster();
    options.block_bytes = block_bytes;
    return options;
  }

  /// Exact equality: all five engines parse the same file bytes with the
  /// same parser and run the same kernels, so their plan paths must
  /// agree to the last bit, not to a tolerance.
  static void ExpectBitIdentical(const TaskResultSet& got,
                                 const TaskResultSet& want,
                                 core::TaskType task) {
    switch (task) {
      case core::TaskType::kHistogram: {
        const auto& g = got.Get<core::HistogramResult>();
        const auto& w = want.Get<core::HistogramResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          EXPECT_EQ(g[i].histogram.counts, w[i].histogram.counts);
        }
        break;
      }
      case core::TaskType::kThreeLine: {
        const auto& g = got.Get<core::ThreeLineResult>();
        const auto& w = want.Get<core::ThreeLineResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          EXPECT_EQ(g[i].heating_gradient, w[i].heating_gradient);
          EXPECT_EQ(g[i].cooling_gradient, w[i].cooling_gradient);
          EXPECT_EQ(g[i].base_load, w[i].base_load);
        }
        break;
      }
      case core::TaskType::kPar: {
        const auto& g = got.Get<core::DailyProfileResult>();
        const auto& w = want.Get<core::DailyProfileResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          EXPECT_EQ(g[i].profile, w[i].profile);
        }
        break;
      }
      case core::TaskType::kSimilarity: {
        const auto& g = got.Get<core::SimilarityResult>();
        const auto& w = want.Get<core::SimilarityResult>();
        ASSERT_EQ(g.size(), w.size());
        for (size_t i = 0; i < g.size(); ++i) {
          EXPECT_EQ(g[i].household_id, w[i].household_id);
          ASSERT_EQ(g[i].matches.size(), w[i].matches.size());
          for (size_t m = 0; m < g[i].matches.size(); ++m) {
            EXPECT_EQ(g[i].matches[m].household_id,
                      w[i].matches[m].household_id);
            EXPECT_EQ(g[i].matches[m].cosine, w[i].matches[m].cosine);
          }
        }
        break;
      }
    }
  }

  static fs::path* dir_;
  static std::string single_csv_;
  static std::vector<std::string>* partitioned_files_;
};

fs::path* PlanTest::dir_ = nullptr;
std::string PlanTest::single_csv_;
std::vector<std::string>* PlanTest::partitioned_files_ = nullptr;

// ---------------------------------------------------------------------------
// Five-engine plan-path parity
// ---------------------------------------------------------------------------

TEST_F(PlanTest, FiveEnginesBitIdenticalOverSameBytes) {
  SystemCEngine systemc((*dir_ / "spool").string());
  MadlibEngine madlib;
  MatlabEngine matlab;
  SparkEngine spark(SparkOptions(64 << 10));
  HiveEngine hive(HiveOptions(64 << 10));
  const DataSource source = *DataSource::SingleCsv(single_csv_);
  ASSERT_TRUE(systemc.Attach(source).ok());
  ASSERT_TRUE(madlib.Attach(source).ok());
  ASSERT_TRUE(matlab.Attach(source).ok());
  ASSERT_TRUE(spark.Attach(source).ok());
  ASSERT_TRUE(hive.Attach(source).ok());
  std::vector<AnalyticsEngine*> others = {&madlib, &matlab, &spark, &hive};

  for (core::TaskType task : core::kAllTasks) {
    const TaskOptions options = TaskOptions::Default(task);
    TaskResultSet baseline;
    auto base_metrics = systemc.RunTask(options, &baseline);
    ASSERT_TRUE(base_metrics.ok()) << base_metrics.status().ToString();
    for (AnalyticsEngine* engine : others) {
      TaskResultSet results;
      auto metrics = engine->RunTask(options, &results);
      ASSERT_TRUE(metrics.ok())
          << engine->name() << "/" << core::TaskName(task) << ": "
          << metrics.status().ToString();
      SCOPED_TRACE(std::string(engine->name()) + "/" +
                   std::string(core::TaskName(task)));
      ExpectBitIdentical(results, baseline, task);
    }
  }
}

TEST_F(PlanTest, FiveEnginesBitIdenticalAcrossColumnFormats) {
  // The SMCOLV1 -> SMCOLV2 migration is a pure storage change: every
  // engine fed the compressed file must produce the same bits as when
  // fed the raw mmap file, across all four tasks. This is the
  // non-negotiable parity pin for the compressed format.
  datagen::SeedGeneratorOptions options;
  options.num_households = kHouseholds;
  options.hours = kHoursPerYear;
  options.seed = 411;
  MeterDataset dataset = *datagen::GenerateSeedDataset(options);
  const std::string v1_path = (*dir_ / "cols.v1.smcol").string();
  const std::string v2_path = (*dir_ / "cols.v2.smcol").string();
  ASSERT_TRUE(storage::ColumnStore::WriteFile(dataset, v1_path).ok());
  ASSERT_TRUE(storage::ColumnFileWriter::WriteFile(dataset, v2_path).ok());

  const auto make_engines = [this](const char* spool) {
    std::vector<std::unique_ptr<AnalyticsEngine>> engines;
    engines.push_back(std::make_unique<SystemCEngine>((*dir_ / spool).string()));
    engines.push_back(std::make_unique<MadlibEngine>());
    engines.push_back(std::make_unique<MatlabEngine>());
    engines.push_back(std::make_unique<SparkEngine>(SparkOptions(64 << 10)));
    engines.push_back(std::make_unique<HiveEngine>(HiveOptions(64 << 10)));
    return engines;
  };
  auto v1_engines = make_engines("spool_fmt_v1");
  auto v2_engines = make_engines("spool_fmt_v2");
  const DataSource v1_source = *DataSource::ColumnFile(v1_path);
  const DataSource v2_source = *DataSource::ColumnFile(v2_path);
  for (auto& engine : v1_engines) {
    auto attach = engine->Attach(v1_source);
    ASSERT_TRUE(attach.ok())
        << engine->name() << ": " << attach.status().ToString();
  }
  for (auto& engine : v2_engines) {
    auto attach = engine->Attach(v2_source);
    ASSERT_TRUE(attach.ok())
        << engine->name() << ": " << attach.status().ToString();
  }

  for (core::TaskType task : core::kAllTasks) {
    const TaskOptions task_options = TaskOptions::Default(task);
    TaskResultSet baseline;
    ASSERT_TRUE(v1_engines[0]->RunTask(task_options, &baseline).ok());
    for (size_t e = 0; e < v1_engines.size(); ++e) {
      TaskResultSet over_v1;
      TaskResultSet over_v2;
      auto v1_metrics = v1_engines[e]->RunTask(task_options, &over_v1);
      auto v2_metrics = v2_engines[e]->RunTask(task_options, &over_v2);
      ASSERT_TRUE(v1_metrics.ok())
          << v1_engines[e]->name() << "/" << core::TaskName(task) << ": "
          << v1_metrics.status().ToString();
      ASSERT_TRUE(v2_metrics.ok())
          << v2_engines[e]->name() << "/" << core::TaskName(task) << ": "
          << v2_metrics.status().ToString();
      SCOPED_TRACE(std::string(v1_engines[e]->name()) + "/" +
                   std::string(core::TaskName(task)));
      // Same engine across formats, and every engine against the
      // five-way baseline: one storage change, zero result drift.
      ExpectBitIdentical(over_v2, over_v1, task);
      ExpectBitIdentical(over_v1, baseline, task);
    }
  }
}

TEST_F(PlanTest, DeltaMergedBatchMatchesRebuiltMonolithicAcrossEngines) {
  // Lambda-architecture parity pin: a base table plus live delta
  // columns, merged by the DeltaTableReader, must produce the same task
  // bits as rebuilding the monolithic column file from the full data
  // and running any of the five engines over it. The speed layer is a
  // storage change, not a semantics change.
  datagen::SeedGeneratorOptions options;
  options.num_households = kHouseholds;
  options.hours = kHoursPerYear;
  options.seed = 411;
  MeterDataset dataset = *datagen::GenerateSeedDataset(options);
  constexpr size_t kDeltaHours = 48;
  const size_t base_hours = dataset.hours() - kDeltaHours;

  // Base = the first base_hours of every series; the last two days
  // arrive through the append path, hour-major like a live feed.
  std::vector<int64_t> ids;
  std::vector<table::SeriesSlice> series;
  for (size_t i = 0; i < dataset.num_consumers(); ++i) {
    ids.push_back(dataset.consumer(i).household_id);
    series.emplace_back(dataset.consumer(i).consumption.data(), base_hours);
  }
  auto base = table::ColumnarBatch::FromSlices(
      ids, series, table::SeriesSlice(dataset.temperature().data(),
                                      base_hours));
  ASSERT_TRUE(base.ok());
  table::DeltaStore store;
  ASSERT_TRUE(store.AttachBase(*base).ok());
  for (size_t h = base_hours; h < dataset.hours(); ++h) {
    for (size_t i = 0; i < dataset.num_consumers(); ++i) {
      ASSERT_TRUE(store
                      .Append(dataset.consumer(i).household_id,
                              static_cast<int64_t>(h),
                              dataset.consumer(i).consumption[h],
                              dataset.temperature()[h])
                      .ok());
    }
  }
  table::DeltaTableReader reader(&store);
  ASSERT_TRUE(reader.Open().ok());
  auto merged = reader.NewBatch();
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->hours(), dataset.hours());

  // Batch layer: reseal the full dataset into a compressed column file.
  const std::string rebuilt_path = (*dir_ / "rebuilt.v2.smcol").string();
  ASSERT_TRUE(
      storage::ColumnFileWriter::WriteFile(dataset, rebuilt_path).ok());
  auto engines = [this]() {
    std::vector<std::unique_ptr<AnalyticsEngine>> engines;
    engines.push_back(
        std::make_unique<SystemCEngine>((*dir_ / "spool_delta").string()));
    engines.push_back(std::make_unique<MadlibEngine>());
    engines.push_back(std::make_unique<MatlabEngine>());
    engines.push_back(std::make_unique<SparkEngine>(SparkOptions(64 << 10)));
    engines.push_back(std::make_unique<HiveEngine>(HiveOptions(64 << 10)));
    return engines;
  }();
  const DataSource rebuilt_source = *DataSource::ColumnFile(rebuilt_path);
  for (auto& engine : engines) {
    auto attach = engine->Attach(rebuilt_source);
    ASSERT_TRUE(attach.ok())
        << engine->name() << ": " << attach.status().ToString();
  }

  for (core::TaskType task : core::kAllTasks) {
    const TaskOptions task_options = TaskOptions::Default(task);
    TaskResultSet over_delta;
    auto delta_metrics =
        RunTaskOverBatch(exec::QueryContext::Background(), *merged,
                         task_options, /*num_threads=*/2, &over_delta);
    ASSERT_TRUE(delta_metrics.ok())
        << "delta/" << core::TaskName(task) << ": "
        << delta_metrics.status().ToString();
    for (auto& engine : engines) {
      TaskResultSet over_rebuilt;
      auto metrics = engine->RunTask(task_options, &over_rebuilt);
      ASSERT_TRUE(metrics.ok())
          << engine->name() << "/" << core::TaskName(task) << ": "
          << metrics.status().ToString();
      SCOPED_TRACE(std::string(engine->name()) + "/" +
                   std::string(core::TaskName(task)));
      ExpectBitIdentical(over_delta, over_rebuilt, task);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-stage timings
// ---------------------------------------------------------------------------

TEST_F(PlanTest, LocalPlanReportsStageRowsSummingToTaskSeconds) {
  SystemCEngine engine((*dir_ / "spool_stages").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskResultSet results;
  auto metrics =
      engine.RunTask(TaskOptions::Default(core::TaskType::kHistogram),
                     &results);
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->stages.size(), 3u);
  EXPECT_EQ(metrics->stages[0].name, "scan");
  EXPECT_EQ(metrics->stages[1].name, "kernel");
  EXPECT_EQ(metrics->stages[2].name, "materialize");
  double sum = 0.0;
  for (const auto& stage : metrics->stages) sum += stage.seconds;
  // Wall-clock stage rows cover the whole task up to inter-stage glue.
  EXPECT_NEAR(sum, metrics->seconds, 0.3 * metrics->seconds + 0.05);
}

TEST_F(PlanTest, SimulatedPlanStageRowsSumExactly) {
  HiveEngine engine(HiveOptions(64 << 10));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskResultSet results;
  auto metrics = engine.RunTask(
      TaskOptions::Default(core::TaskType::kThreeLine), &results);
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics->simulated);
  ASSERT_FALSE(metrics->stages.empty());
  // Simulated time is exactly the sum of its priced stages (the driver
  // row carries the job overhead).
  EXPECT_EQ(metrics->stages[0].name, "driver");
  double sum = 0.0;
  for (const auto& stage : metrics->stages) sum += stage.seconds;
  EXPECT_NEAR(sum, metrics->seconds, 1e-9);
}

// Wall-clock and simulated stage seconds land in separate counters:
// cluster dispatch raises only plan.stage.<name>.sim_ns, local dispatch
// only plan.stage.<name>.ns.
TEST_F(PlanTest, StageCountersSeparateWallClockFromSimulated) {
  const auto counter = [](const std::string& stage, const char* suffix) {
    return obs::MetricsRegistry::Global()
        .GetCounter("plan.stage." + stage + suffix)
        ->Value();
  };
  const auto run = [&](AnalyticsEngine* engine, bool simulated) {
    ASSERT_TRUE(engine->Attach(*DataSource::SingleCsv(single_csv_)).ok());
    const std::vector<std::string> names = {
        "driver", "scan", "shuffle", "kernel", "materialize", "merge"};
    std::vector<int64_t> ns_before, sim_before;
    for (const std::string& name : names) {
      ns_before.push_back(counter(name, ".ns"));
      sim_before.push_back(counter(name, ".sim_ns"));
    }
    TaskResultSet results;
    auto metrics = engine->RunTask(
        TaskOptions::Default(core::TaskType::kHistogram), &results);
    ASSERT_TRUE(metrics.ok());
    ASSERT_EQ(metrics->simulated, simulated);
    int64_t ns_added = 0;
    int64_t sim_added = 0;
    for (size_t i = 0; i < names.size(); ++i) {
      ns_added += counter(names[i], ".ns") - ns_before[i];
      sim_added += counter(names[i], ".sim_ns") - sim_before[i];
    }
    if (simulated) {
      EXPECT_GT(sim_added, 0) << engine->name();
      EXPECT_EQ(ns_added, 0) << engine->name();
    } else {
      EXPECT_GT(ns_added, 0) << engine->name();
      EXPECT_EQ(sim_added, 0) << engine->name();
    }
  };
  SparkEngine spark(SparkOptions(64 << 10));
  run(&spark, /*simulated=*/true);
  HiveEngine hive(HiveOptions(64 << 10));
  run(&hive, /*simulated=*/true);
  SystemCEngine system_c((*dir_ / "spool_stage_counters").string());
  run(&system_c, /*simulated=*/false);
}

// ---------------------------------------------------------------------------
// Plan shape goldens
// ---------------------------------------------------------------------------

TEST_F(PlanTest, SystemCPlanGolden) {
  SystemCEngine engine((*dir_ / "spool_golden").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto plan = engine.BuildPlan(TaskOptions::Default(core::TaskType::kHistogram));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan system-c/histogram/resident {\n"
            "  scan: scan[batch source=columnar-mmap]\n"
            "  kernel: kernel[histogram]\n"
            "  materialize: materialize\n"
            "}");
}

TEST_F(PlanTest, MadlibPlanGolden) {
  MadlibEngine engine;
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto plan =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kThreeLine));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan madlib/3line/cold {\n"
            "  scan: scan[batch source=row-store]\n"
            "  kernel: kernel[3line]\n"
            "  materialize: materialize\n"
            "}");
}

TEST_F(PlanTest, MatlabPlanGolden) {
  MatlabEngine engine;
  ASSERT_TRUE(
      engine.Attach(*DataSource::PartitionedDir(*partitioned_files_)).ok());
  auto plan = engine.BuildPlan(TaskOptions::Default(core::TaskType::kPar));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan matlab/par/per-file {\n"
            "  scan: scan[series source=household-files partitions=6]\n"
            "  kernel: kernel[par fused-scan]\n"
            "  materialize: materialize\n"
            "}");
}

TEST_F(PlanTest, SparkPlanGolden) {
  // A block size larger than the file keeps the split count at one, so
  // the golden stays stable.
  SparkEngine engine(SparkOptions(256 << 20));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto plan =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kHistogram));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->DebugString(),
            "plan spark/histogram/format1 {\n"
            "  scan: scan[readings source=hdfs-rows partitions=1]\n"
            "  shuffle: shuffle[dataflow partitions=per-slot]\n"
            "  kernel: kernel[histogram]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
}

TEST_F(PlanTest, HivePlanGoldens) {
  HiveEngine engine(HiveOptions(256 << 20));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  auto udaf = engine.BuildPlan(TaskOptions::Default(core::TaskType::kPar));
  ASSERT_TRUE(udaf.ok());
  EXPECT_EQ(udaf->DebugString(),
            "plan hive/par/format1 {\n"
            "  scan: scan[readings source=hdfs-rows partitions=1]\n"
            "  shuffle: shuffle[sort-merge partitions=per-slot]\n"
            "  kernel: kernel[par]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
  auto join =
      engine.BuildPlan(TaskOptions::Default(core::TaskType::kSimilarity));
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->DebugString(),
            "plan hive/similarity/format1 {\n"
            "  scan: scan[readings source=hdfs-rows partitions=1]\n"
            "  shuffle: shuffle[sort-merge partitions=per-slot]\n"
            "  kernel: kernel[similarity self-join-shuffle]\n"
            "  materialize: materialize\n"
            "  merge: merge[sort=household_id]\n"
            "}");
}

// ---------------------------------------------------------------------------
// Cancellation at partition boundaries
// ---------------------------------------------------------------------------

TEST_F(PlanTest, ExpiredDeadlineAbortsPartitionedPlan) {
  MatlabEngine engine;
  ASSERT_TRUE(
      engine.Attach(*DataSource::PartitionedDir(*partitioned_files_)).ok());
  exec::QueryContext ctx;
  ctx.set_deadline(exec::QueryContext::Clock::now() -
                   std::chrono::milliseconds(1));
  TaskResultSet results;
  auto metrics = engine.RunTask(
      ctx, TaskOptions::Default(core::TaskType::kHistogram), &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDeadlineExceeded)
      << metrics.status().ToString();
}

TEST_F(PlanTest, CancelledContextAbortsSimulatedPlan) {
  SparkEngine engine(SparkOptions(64 << 10));
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  exec::QueryContext ctx;
  ctx.RequestCancel();
  TaskResultSet results;
  auto metrics = engine.RunTask(
      ctx, TaskOptions::Default(core::TaskType::kThreeLine), &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kCancelled)
      << metrics.status().ToString();
}

TEST_F(PlanTest, DeadlineDuringRetryBackoffShedsCleanly) {
  // Every simulated attempt fails and the attempt budget is effectively
  // infinite, so without the stop check polled between retries this
  // query would grind through 2^30 simulated attempts per task. The
  // deadline expires while tasks are in retry backoff; the query must
  // shed promptly with kDeadlineExceeded and no partial results.
  SparkEngine::Options options = SparkOptions(64 << 10);
  options.cluster.faults.seed = 13;
  options.cluster.faults.task_failure_probability = 1.0;
  options.cluster.faults.max_task_attempts = 1 << 30;
  SparkEngine engine(options);
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  exec::QueryContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds(50));
  TaskResultSet results;
  auto metrics = engine.RunTask(
      ctx, TaskOptions::Default(core::TaskType::kHistogram), &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDeadlineExceeded)
      << metrics.status().ToString();
  EXPECT_TRUE(results.empty());  // Clean shed, nothing half-merged.
}

// ---------------------------------------------------------------------------
// Row scopes and scatter-gather
// ---------------------------------------------------------------------------

TEST_F(PlanTest, ScopedPartialsGatherBitIdenticalToFullRun) {
  // The serving layer's scatter path: run each task over two disjoint
  // row slices of the same table, gather the partials through the plan
  // IR's Materialize + Merge stages, and require the result to match an
  // unscoped run bit for bit.
  SystemCEngine engine((*dir_ / "spool_scope").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  for (core::TaskType task : core::kAllTasks) {
    SCOPED_TRACE(core::TaskName(task));
    TaskResultSet baseline;
    ASSERT_TRUE(engine.RunTask(TaskOptions::Default(task), &baseline).ok());

    std::vector<TaskResultSet> partials(2);
    TaskOptions low = TaskOptions::Default(task);
    low.set_scope({0, kHouseholds / 2});
    ASSERT_TRUE(engine.RunTask(low, &partials[0]).ok());
    TaskOptions high = TaskOptions::Default(task);
    high.set_scope({kHouseholds / 2, 0});  // count 0 = through the last row.
    ASSERT_TRUE(engine.RunTask(high, &partials[1]).ok());
    ASSERT_EQ(partials[0].size() + partials[1].size(), baseline.size());

    TaskResultSet gathered;
    exec::PlanExecutor executor;
    auto metrics =
        executor.RunGather(exec::QueryContext::Background(),
                           std::move(partials),
                           /*sort_by_household=*/true, &gathered);
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    ASSERT_EQ(metrics->stages.size(), 2u);
    EXPECT_EQ(metrics->stages[0].name, "materialize");
    EXPECT_EQ(metrics->stages[1].name, "merge");
    ExpectBitIdentical(gathered, baseline, task);
  }
}

TEST_F(PlanTest, ScopedKernelRendersScopeInPlanGolden) {
  SystemCEngine engine((*dir_ / "spool_scope_golden").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskOptions options = TaskOptions::Default(core::TaskType::kHistogram);
  options.set_scope({3, 0});
  auto plan = engine.BuildPlan(options);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->DebugString().find("kernel[histogram scope=3+rest]"),
            std::string::npos)
      << plan->DebugString();
}

TEST_F(PlanTest, SeriesPlanRejectsRowScope) {
  // The per-file series path re-partitions by household and loses row
  // positions, so a scoped request must be rejected, not half-honored.
  MatlabEngine engine;
  ASSERT_TRUE(
      engine.Attach(*DataSource::PartitionedDir(*partitioned_files_)).ok());
  TaskOptions options = TaskOptions::Default(core::TaskType::kHistogram);
  options.set_scope({0, 3});
  TaskResultSet results;
  auto metrics = engine.RunTask(options, &results);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kNotSupported)
      << metrics.status().ToString();
}

TEST_F(PlanTest, GatherSkipsEmptyPartials) {
  // A shard whose slice is empty contributes a monostate partial; the
  // gather must pass it through without disturbing the merged order.
  SystemCEngine engine((*dir_ / "spool_gather_empty").string());
  ASSERT_TRUE(engine.Attach(*DataSource::SingleCsv(single_csv_)).ok());
  TaskResultSet baseline;
  ASSERT_TRUE(
      engine.RunTask(TaskOptions::Default(core::TaskType::kHistogram),
                     &baseline)
          .ok());
  std::vector<TaskResultSet> partials(3);  // [0] and [2] stay monostate.
  ASSERT_TRUE(
      engine.RunTask(TaskOptions::Default(core::TaskType::kHistogram),
                     &partials[1])
          .ok());
  TaskResultSet gathered;
  exec::PlanExecutor executor;
  auto metrics = executor.RunGather(exec::QueryContext::Background(),
                                    std::move(partials),
                                    /*sort_by_household=*/true, &gathered);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ExpectBitIdentical(gathered, baseline, core::TaskType::kHistogram);
}

}  // namespace
}  // namespace smartmeter::engines
