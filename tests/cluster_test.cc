#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "cluster/block_store.h"
#include "cluster/cost_model.h"
#include "cluster/task_scheduler.h"
#include "common/rng.h"

namespace smartmeter::cluster {
namespace {

namespace fs = std::filesystem;

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("cluster_test_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string WriteFile(const std::string& name,
                        const std::string& contents) {
    const std::string path = (dir_ / name).string();
    FILE* f = fopen(path.c_str(), "w");
    fwrite(contents.data(), 1, contents.size(), f);
    fclose(f);
    return path;
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Split reading (TextInputFormat semantics)
// ---------------------------------------------------------------------------

TEST_F(ClusterTest, SplitsCoverEveryLineExactlyOnce) {
  // Random lines, random block size: union of split reads == file lines.
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    std::string contents;
    std::vector<std::string> expected;
    const int n_lines = 1 + static_cast<int>(rng.UniformInt(100));
    for (int i = 0; i < n_lines; ++i) {
      std::string line = "line-" + std::to_string(trial) + "-" +
                         std::to_string(i) + "-" +
                         std::string(rng.UniformInt(30), 'x');
      expected.push_back(line);
      contents += line + "\n";
    }
    const std::string path =
        WriteFile("t" + std::to_string(trial) + ".txt", contents);
    const int64_t block = 1 + static_cast<int64_t>(rng.UniformInt(64));
    BlockStore store(4, block);
    ASSERT_TRUE(store.AddFile(path).ok());
    std::vector<std::string> collected;
    for (const InputSplit& split : store.SplittableSplits()) {
      auto lines = ReadSplitLines(split);
      ASSERT_TRUE(lines.ok());
      collected.insert(collected.end(), lines->begin(), lines->end());
    }
    // Order within a split is file order; splits are in offset order.
    EXPECT_EQ(collected, expected) << "block=" << block;
  }
}

TEST_F(ClusterTest, FileWithoutTrailingNewline) {
  const std::string path = WriteFile("nonl.txt", "a\nbb\nccc");
  BlockStore store(2, 4);
  ASSERT_TRUE(store.AddFile(path).ok());
  std::vector<std::string> collected;
  for (const InputSplit& split : store.SplittableSplits()) {
    auto lines = ReadSplitLines(split);
    ASSERT_TRUE(lines.ok());
    collected.insert(collected.end(), lines->begin(), lines->end());
  }
  const std::vector<std::string> expected = {"a", "bb", "ccc"};
  EXPECT_EQ(collected, expected);
}

TEST_F(ClusterTest, WholeFileSplitsOnePerFile) {
  WriteFile("a.txt", "1\n2\n");
  WriteFile("b.txt", "3\n");
  BlockStore store(4, 2);  // Tiny blocks, but whole-file ignores them.
  ASSERT_TRUE(store.AddFile((dir_ / "a.txt").string()).ok());
  ASSERT_TRUE(store.AddFile((dir_ / "b.txt").string()).ok());
  const auto splits = store.WholeFileSplits();
  ASSERT_EQ(splits.size(), 2u);
  auto lines_a = ReadSplitLines(splits[0]);
  ASSERT_TRUE(lines_a.ok());
  EXPECT_EQ(lines_a->size(), 2u);
  EXPECT_EQ(store.num_files(), 2u);
  EXPECT_EQ(store.total_bytes(), 6);
}

TEST_F(ClusterTest, SplittableSplitsRespectBlockSize) {
  std::string contents;
  for (int i = 0; i < 100; ++i) contents += "0123456789\n";  // 1100 bytes.
  const std::string path = WriteFile("big.txt", contents);
  BlockStore store(4, 256);
  ASSERT_TRUE(store.AddFile(path).ok());
  const auto splits = store.SplittableSplits();
  EXPECT_EQ(splits.size(), 5u);  // ceil(1100 / 256).
  EXPECT_TRUE(splits[0].opens_file);
  EXPECT_FALSE(splits[1].opens_file);
  std::set<int> nodes;
  for (const auto& s : splits) nodes.insert(s.home_node);
  EXPECT_GT(nodes.size(), 1u);  // Blocks spread over nodes.
}

TEST(BlockStoreTest, MissingFileFails) {
  BlockStore store(2, 64);
  EXPECT_EQ(store.AddFile("/nonexistent/x.csv").code(),
            StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// TaskWaveRunner
// ---------------------------------------------------------------------------

ClusterConfig TestConfig(int nodes = 2, int slots = 2) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.slots_per_node = slots;
  return config;
}

TEST(TaskWaveRunnerTest, SimulatedSecondsComposesCosts) {
  ClusterConfig config = TestConfig();
  config.cost.scan_seconds_per_mb = 1.0;
  config.cost.shuffle_seconds_per_mb = 2.0;
  config.cost.file_open_seconds = 0.5;
  TaskWaveRunner runner(config, /*task_startup_seconds=*/0.25);
  TaskStats stats;
  stats.input_bytes = 1 << 20;    // 1 MB -> 1 s.
  stats.shuffle_bytes = 2 << 20;  // 2 MB -> 4 s.
  stats.files_opened = 2;         // -> 1 s.
  stats.compute_seconds = 0.5;
  stats.fixed_seconds = 0.25;
  EXPECT_NEAR(runner.SimulatedSeconds(stats), 0.25 + 1.0 + 4.0 + 1.0 + 0.5 +
                                                  0.25,
              1e-12);
}

TEST(TaskWaveRunnerTest, MakespanListSchedules) {
  TaskWaveRunner runner(TestConfig(2, 1), 0.0);  // 2 slots.
  // Durations 3,3,3 on 2 slots -> 6; 5,1,1,1 -> 5 vs greedy 5? greedy:
  // slotA=5, slotB=1+1+1=3 -> makespan 5.
  EXPECT_DOUBLE_EQ(runner.Makespan({3, 3, 3}), 6.0);
  EXPECT_DOUBLE_EQ(runner.Makespan({5, 1, 1, 1}), 5.0);
  EXPECT_DOUBLE_EQ(runner.Makespan({}), 0.0);
}

TEST(TaskWaveRunnerTest, RunExecutesAllTasksAndMeasuresCompute) {
  TaskWaveRunner runner(TestConfig(4, 4), 0.0);
  std::atomic<int> executed{0};
  std::vector<TaskWaveRunner::TaskFn> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back([&executed](TaskStats* stats) -> Status {
      executed.fetch_add(1);
      // Busy work so measured thread CPU time is nonzero.
      double acc = 0.0;
      for (int k = 0; k < 200000; ++k) acc += std::sqrt(k);
      stats->fixed_seconds = acc > 0 ? 0.0 : 1.0;
      return Status::OK();
    });
  }
  auto result = runner.RunWave(&tasks, WaveOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(executed.load(), 20);
  EXPECT_GT(result->makespan_seconds, 0.0);
}

TEST(TaskWaveRunnerTest, FirstErrorPropagates) {
  TaskWaveRunner runner(TestConfig(), 0.0);
  std::vector<TaskWaveRunner::TaskFn> tasks;
  tasks.push_back([](TaskStats*) { return Status::OK(); });
  tasks.push_back(
      [](TaskStats*) { return Status::Corruption("bad split"); });
  auto result = runner.RunWave(&tasks, WaveOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Cost-model goldens: these pin the *default* calibrated constants. If a
// default changes, every simulated figure in the paper reproduction moves;
// update the constant deliberately and re-derive the literals here.
// ---------------------------------------------------------------------------

TEST(CostModelGolden, DefaultConstantsPinned) {
  const CostModel cost;
  EXPECT_DOUBLE_EQ(cost.hive_task_startup_seconds, 0.08);
  EXPECT_DOUBLE_EQ(cost.spark_task_startup_seconds, 0.01);
  EXPECT_DOUBLE_EQ(cost.hive_job_overhead_seconds, 1.2);
  EXPECT_DOUBLE_EQ(cost.spark_job_overhead_seconds, 0.3);
  EXPECT_DOUBLE_EQ(cost.scan_seconds_per_mb, 0.008);
  EXPECT_DOUBLE_EQ(cost.shuffle_seconds_per_mb, 0.035);
  EXPECT_DOUBLE_EQ(cost.broadcast_seconds_per_mb_per_node, 0.002);
  EXPECT_DOUBLE_EQ(cost.file_open_seconds, 0.004);
  EXPECT_DOUBLE_EQ(cost.spark_per_partition_driver_seconds, 0.0005);
  EXPECT_DOUBLE_EQ(cost.spark_wholefile_read_seconds_per_mb, 0.06);
  EXPECT_EQ(cost.spark_max_open_files, 100000);
  EXPECT_TRUE(cost.use_measured_compute);
  EXPECT_DOUBLE_EQ(cost.modeled_compute_seconds_per_mb, 0.02);
}

TEST(CostModelGolden, CanonicalTaskUnderDefaultConstants) {
  // A canonical task: 10 MB scanned, 4 MB shuffled, 25 files opened,
  // 0.5 s measured compute, 0.125 s fixed. Hand-computed against the
  // default constants:
  //   hive:  0.08 + 25*0.004 + 10*0.008 + 4*0.035 + 0.125 + 0.5 = 1.025
  //   spark: 0.01 + 0.1 + 0.08 + 0.14 + 0.125 + 0.5           = 0.955
  TaskStats stats;
  stats.input_bytes = 10 << 20;
  stats.shuffle_bytes = 4 << 20;
  stats.files_opened = 25;
  stats.compute_seconds = 0.5;
  stats.fixed_seconds = 0.125;
  ClusterConfig config;  // Default cost model.
  const CostModel defaults;
  TaskWaveRunner hive(config, defaults.hive_task_startup_seconds);
  TaskWaveRunner spark(config, defaults.spark_task_startup_seconds);
  EXPECT_NEAR(hive.SimulatedSeconds(stats), 1.025, 1e-12);
  EXPECT_NEAR(spark.SimulatedSeconds(stats), 0.955, 1e-12);
  // Deterministic-compute mode replaces the measured 0.5 s by
  // 10 MB * 0.02 = 0.2 s: hive drops to 0.725.
  config.cost.use_measured_compute = false;
  TaskWaveRunner modeled(config, defaults.hive_task_startup_seconds);
  EXPECT_NEAR(modeled.SimulatedSeconds(stats), 0.725, 1e-12);
  // And a canonical wave of six such tasks on 2x2 slots list-schedules
  // to two back-to-back rounds.
  TaskWaveRunner sched(TestConfig(2, 2), defaults.hive_task_startup_seconds);
  EXPECT_NEAR(sched.Makespan(std::vector<double>(6, 1.025)), 2.05, 1e-12);
}

TEST(TaskWaveRunnerTest, TopologyChargesPerLinkTransferTime) {
  ClusterConfig config = TestConfig(4, 1);
  config.topology.num_racks = 2;
  config.topology.intra_rack_mb_per_s = 100.0;
  config.topology.cross_rack_mb_per_s = 25.0;
  TaskWaveRunner runner(config, 0.0);
  // 4 nodes in 2 racks: half of a task's 8 MB shuffle stays on the
  // 100 MB/s in-rack link, half crosses the 25 MB/s core link:
  //   8*0.5/100 + 8*0.5/25 = 0.04 + 0.16 = 0.2 s.
  EXPECT_NEAR(runner.TopologyNetworkSeconds(8 << 20, 0), 0.2, 1e-12);
  // Same for a task homed in the other rack (symmetric split).
  EXPECT_NEAR(runner.TopologyNetworkSeconds(8 << 20, 2), 0.2, 1e-12);
  // Disabled topology (defaults) charges nothing.
  TaskWaveRunner flat(TestConfig(4, 1), 0.0);
  EXPECT_DOUBLE_EQ(flat.TopologyNetworkSeconds(8 << 20, 0), 0.0);
}

TEST(TaskWaveRunnerTest, FaultTimelineIsSeedDeterministic) {
  ClusterConfig config = TestConfig(2, 2);
  config.cost.use_measured_compute = false;
  config.faults.seed = 77;
  config.faults.task_failure_probability = 0.3;
  config.faults.retry_backoff_seconds = 0.25;
  config.faults.straggler_probability = 0.5;
  config.faults.speculative_execution = true;
  auto make_tasks = [] {
    std::vector<TaskWaveRunner::TaskFn> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([i](TaskStats* stats) {
        stats->fixed_seconds = 0.1 * (i + 1);
        return Status::OK();
      });
    }
    return tasks;
  };
  TaskWaveRunner runner(config, 0.0);
  WaveOptions options;
  options.wave_salt = 3;
  auto tasks1 = make_tasks();
  auto tasks2 = make_tasks();
  auto run1 = runner.RunWave(&tasks1, options);
  auto run2 = runner.RunWave(&tasks2, options);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  // Same seed + salt: bit-identical timeline and fault ledger.
  EXPECT_EQ(run1->makespan_seconds, run2->makespan_seconds);
  EXPECT_EQ(run1->faults.retries, run2->faults.retries);
  EXPECT_EQ(run1->faults.stragglers, run2->faults.stragglers);
  EXPECT_EQ(run1->faults.speculative_launched,
            run2->faults.speculative_launched);
  EXPECT_EQ(run1->faults.speculative_wins, run2->faults.speculative_wins);
  EXPECT_EQ(run1->faults.backoff_seconds, run2->faults.backoff_seconds);
  EXPECT_EQ(run1->faults.wasted_seconds, run2->faults.wasted_seconds);
  // A different wave salt draws a different timeline (with these rates,
  // 16 tasks all landing identically is practically impossible).
  WaveOptions other;
  other.wave_salt = 4;
  auto tasks3 = make_tasks();
  auto run3 = runner.RunWave(&tasks3, other);
  ASSERT_TRUE(run3.ok()) << run3.status().ToString();
  EXPECT_NE(run1->makespan_seconds, run3->makespan_seconds);
}

TEST(TaskWaveRunnerTest, NeutralFaultDefaultsAddNothing) {
  ClusterConfig config = TestConfig(2, 2);
  config.cost.use_measured_compute = false;
  std::vector<TaskWaveRunner::TaskFn> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([](TaskStats* stats) {
      stats->fixed_seconds = 0.5;
      return Status::OK();
    });
  }
  TaskWaveRunner runner(config, 0.0);
  auto result = runner.RunWave(&tasks, WaveOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->makespan_seconds, 1.0);  // 8 x 0.5 on 4 slots.
  EXPECT_FALSE(result->faults.any());
}

TEST(TaskWaveRunnerTest, ExhaustedAttemptsAbortTheWave) {
  ClusterConfig config = TestConfig(2, 2);
  config.faults.seed = 5;
  config.faults.task_failure_probability = 1.0;
  config.faults.max_task_attempts = 3;
  std::atomic<int> executed{0};
  std::vector<TaskWaveRunner::TaskFn> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&executed](TaskStats* stats) {
      executed.fetch_add(1);
      stats->fixed_seconds = 0.1;
      return Status::OK();
    });
  }
  TaskWaveRunner runner(config, 0.0);
  auto result = runner.RunWave(&tasks, WaveOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  // The real work still ran exactly once per task; only the simulated
  // attempts burned out.
  EXPECT_EQ(executed.load(), 4);
}

TEST(TaskWaveRunnerTest, StopCheckAbortsMidRetryWithoutRerunningWork) {
  // A task stuck in a retry storm must honor the query's stop signal
  // between simulated attempts instead of simulating every retry.
  ClusterConfig config = TestConfig(1, 1);
  config.faults.seed = 11;
  config.faults.task_failure_probability = 1.0;
  config.faults.max_task_attempts = 1 << 30;  // Would "retry" forever.
  std::atomic<int> executed{0};
  std::atomic<int> polls{0};
  std::vector<TaskWaveRunner::TaskFn> tasks;
  tasks.push_back([&executed](TaskStats* stats) {
    executed.fetch_add(1);
    stats->fixed_seconds = 0.1;
    return Status::OK();
  });
  TaskWaveRunner runner(config, 0.0);
  WaveOptions options;
  options.stop_check = [&polls]() -> Status {
    if (polls.fetch_add(1) >= 3) {
      return Status::DeadlineExceeded("query deadline during backoff");
    }
    return Status::OK();
  };
  auto result = runner.RunWave(&tasks, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(executed.load(), 1);  // Real work never re-ran.
  EXPECT_EQ(polls.load(), 4);     // Aborted on the failing poll.
}

TEST(TaskWaveRunnerTest, MoreSlotsShrinkMakespan) {
  const std::vector<double> durations(64, 1.0);
  TaskWaveRunner small(TestConfig(2, 2), 0.0);   // 4 slots.
  TaskWaveRunner large(TestConfig(8, 2), 0.0);   // 16 slots.
  EXPECT_DOUBLE_EQ(small.Makespan(durations), 16.0);
  EXPECT_DOUBLE_EQ(large.Makespan(durations), 4.0);
}

// ---------------------------------------------------------------------------
// Cost-model properties
// ---------------------------------------------------------------------------

TEST(CostModelPropertyTest, MakespanMonotoneInSlots) {
  Rng rng(23);
  std::vector<double> durations(100);
  for (double& d : durations) d = rng.NextDouble();
  double prev = std::numeric_limits<double>::infinity();
  for (int nodes : {1, 2, 4, 8, 16, 32}) {
    ClusterConfig config;
    config.num_nodes = nodes;
    config.slots_per_node = 2;
    TaskWaveRunner runner(config, 0.0);
    const double makespan = runner.Makespan(durations);
    EXPECT_LE(makespan, prev + 1e-12) << nodes;
    // Never better than perfect parallelism, never worse than serial.
    const double total =
        std::accumulate(durations.begin(), durations.end(), 0.0);
    EXPECT_GE(makespan, total / config.total_slots() - 1e-12);
    EXPECT_LE(makespan, total + 1e-12);
    prev = makespan;
  }
}

TEST(CostModelPropertyTest, SimulatedSecondsMonotoneInEachCost) {
  ClusterConfig config;
  TaskWaveRunner runner(config, 0.05);
  TaskStats base;
  base.compute_seconds = 0.1;
  base.input_bytes = 1 << 20;
  base.shuffle_bytes = 1 << 20;
  base.files_opened = 1;
  const double baseline = runner.SimulatedSeconds(base);
  TaskStats more = base;
  more.input_bytes *= 2;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
  more = base;
  more.shuffle_bytes *= 2;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
  more = base;
  more.files_opened += 5;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
  more = base;
  more.compute_seconds *= 2;
  EXPECT_GT(runner.SimulatedSeconds(more), baseline);
}

}  // namespace
}  // namespace smartmeter::cluster
