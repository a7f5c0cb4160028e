#include "cluster/task_scheduler.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <queue>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace smartmeter::cluster {

namespace {

/// splitmix64-style finalizer over the fault seed, the wave salt, and
/// the task index: every task gets an independent deterministic stream
/// no matter which host thread simulates it.
uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t task) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL +
               salt * 0xBF58476D1CE4E5B9ULL +
               (task + 1) * 0x94D049BB133111EBULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// One task's simulated fault outcome, accumulated into the wave ledger
/// in task order so reductions are deterministic.
struct TaskFaultOutcome {
  double duration = 0.0;       // Resolved duration after faults.
  double base_duration = 0.0;  // Un-straggled single-attempt duration.
  WaveFaultStats stats;
  bool exhausted = false;  // Burned every attempt; the wave aborts.
};

}  // namespace

double ThreadCpuSeconds() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TaskWaveRunner::TaskWaveRunner(const ClusterConfig& config,
                               double task_startup_seconds)
    : config_(config), task_startup_seconds_(task_startup_seconds) {}

double TaskWaveRunner::SimulatedSeconds(const TaskStats& stats) const {
  const CostModel& cost = config_.cost;
  const double input_mb =
      static_cast<double>(stats.input_bytes) / (1024.0 * 1024.0);
  const double shuffle_mb =
      static_cast<double>(stats.shuffle_bytes) / (1024.0 * 1024.0);
  const double compute_seconds =
      cost.use_measured_compute
          ? stats.compute_seconds
          : input_mb * cost.modeled_compute_seconds_per_mb;
  return task_startup_seconds_ +
         stats.files_opened * cost.file_open_seconds +
         input_mb * cost.scan_seconds_per_mb +
         shuffle_mb * cost.shuffle_seconds_per_mb + stats.fixed_seconds +
         compute_seconds;
}

double TaskWaveRunner::TopologyNetworkSeconds(int64_t shuffle_bytes,
                                              size_t task_index) const {
  const Topology& topology = config_.topology;
  if (!topology.enabled() || shuffle_bytes <= 0) return 0.0;
  const int nodes = std::max(1, config_.num_nodes);
  // Tasks are placed round-robin; a task's rack determines how much of
  // its shuffle traffic stays on the cheap in-rack links.
  const int home_node = static_cast<int>(task_index) % nodes;
  const int per_rack = topology.nodes_per_rack(nodes);
  const int rack_lo = (home_node / per_rack) * per_rack;
  const int rack_nodes = std::min(per_rack, nodes - rack_lo);
  const double local_fraction =
      static_cast<double>(rack_nodes) / static_cast<double>(nodes);
  const double shuffle_mb =
      static_cast<double>(shuffle_bytes) / (1024.0 * 1024.0);
  double seconds = 0.0;
  if (topology.intra_rack_mb_per_s > 0.0) {
    seconds += shuffle_mb * local_fraction / topology.intra_rack_mb_per_s;
  }
  if (topology.cross_rack_mb_per_s > 0.0) {
    seconds +=
        shuffle_mb * (1.0 - local_fraction) / topology.cross_rack_mb_per_s;
  }
  return seconds;
}

double TaskWaveRunner::Makespan(const std::vector<double>& durations) const {
  const int slots = std::max(1, config_.total_slots());
  // Greedy FIFO: each task starts on the slot that frees up first.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int s = 0; s < slots; ++s) free_at.push(0.0);
  double makespan = 0.0;
  for (double d : durations) {
    const double start = free_at.top();
    free_at.pop();
    const double end = start + d;
    free_at.push(end);
    makespan = std::max(makespan, end);
  }
  return makespan;
}

namespace {

/// Simulates the retry timeline of one task whose real work already ran:
/// each attempt may straggle and may fail partway through; failed
/// attempts add wasted time plus exponential backoff. Purely arithmetic
/// (no waiting), but the stop check is polled between attempts so a
/// cancelled or expired query aborts instead of simulating a retry
/// storm to completion.
Status SimulateTaskFaults(const FaultModel& faults, uint64_t wave_salt,
                          size_t task_index,
                          const std::function<Status()>& stop_check,
                          TaskFaultOutcome* out) {
  out->duration = out->base_duration;
  if (!faults.enabled()) return Status::OK();
  Rng rng(MixSeed(faults.seed, wave_salt, task_index));
  const int max_attempts = std::max(1, faults.max_task_attempts);
  double total = 0.0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1 && stop_check) {
      SM_RETURN_IF_ERROR(stop_check());
    }
    double attempt_seconds = out->base_duration;
    if (faults.straggler_probability > 0.0 &&
        rng.NextDouble() < faults.straggler_probability) {
      attempt_seconds *= rng.Uniform(faults.straggler_multiplier_min,
                                     faults.straggler_multiplier_max);
      ++out->stats.stragglers;
    }
    const bool fails = faults.task_failure_probability > 0.0 &&
                       rng.NextDouble() < faults.task_failure_probability;
    if (!fails) {
      total += attempt_seconds;
      out->duration = total;
      return Status::OK();
    }
    // The attempt dies a uniform fraction of the way in.
    const double wasted = attempt_seconds * rng.NextDouble();
    total += wasted;
    out->stats.wasted_seconds += wasted;
    if (attempt == max_attempts) {
      out->exhausted = true;
      out->duration = total;
      return Status::OK();
    }
    // Exponential backoff, capped so huge attempt budgets don't overflow
    // the shift (Hadoop caps the real thing at minutes anyway).
    const int exponent = std::min(attempt - 1, 30);
    const double backoff = faults.retry_backoff_seconds *
                           static_cast<double>(int64_t{1} << exponent);
    total += backoff;
    out->stats.backoff_seconds += backoff;
    ++out->stats.retries;
  }
  return Status::OK();
}

}  // namespace

Result<WaveResult> TaskWaveRunner::RunWave(std::vector<TaskFn>* tasks,
                                           const WaveOptions& options) {
  const size_t n = tasks->size();
  std::vector<TaskFaultOutcome> outcomes(n);
  std::mutex error_mu;
  Status first_error = Status::OK();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(static_cast<int>(hw));
  pool.ParallelFor(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      TaskStats stats;
      // Thread CPU time is immune to host oversubscription, but some
      // container kernels stub it out; fall back to wall time then (the
      // host pool is sized to the hardware, so contention stays mild).
      const double cpu_before = ThreadCpuSeconds();
      Stopwatch wall;
      const Status st = (*tasks)[i](&stats);
      const double wall_seconds = wall.ElapsedSeconds();
      const double cpu_seconds =
          std::max(0.0, ThreadCpuSeconds() - cpu_before);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = st;
        return;
      }
      if (stats.compute_seconds == 0.0) {
        stats.compute_seconds =
            cpu_seconds > 0.0 ? cpu_seconds : wall_seconds;
      }
      outcomes[i].base_duration =
          SimulatedSeconds(stats) +
          TopologyNetworkSeconds(stats.shuffle_bytes, i);
      const Status sim =
          SimulateTaskFaults(config_.faults, options.wave_salt, i,
                             options.stop_check, &outcomes[i]);
      if (!sim.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = sim;
        return;
      }
    }
  });
  if (!first_error.ok()) return first_error;

  WaveResult result;
  std::vector<double> durations(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (outcomes[i].exhausted) {
      return Status::Aborted(
          "simulated task " + std::to_string(i) + " failed after " +
          std::to_string(std::max(1, config_.faults.max_task_attempts)) +
          " attempts");
    }
    durations[i] = outcomes[i].duration;
    result.faults.Accumulate(outcomes[i].stats);
  }
  if (config_.faults.speculative_execution && n > 1) {
    // A backup copy launches at the wave's median mark for any task
    // running slower than slow_factor x median because of faults (not
    // merely because its partition is bigger); the faster copy wins.
    std::vector<double> sorted = durations;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[n / 2];
    const double threshold = config_.faults.speculation_slow_factor * median;
    for (size_t i = 0; i < n; ++i) {
      if (durations[i] <= threshold ||
          durations[i] <= outcomes[i].base_duration) {
        continue;
      }
      ++result.faults.speculative_launched;
      const double backup = median + outcomes[i].base_duration;
      if (backup < durations[i]) {
        durations[i] = backup;
        ++result.faults.speculative_wins;
      }
    }
  }
  result.makespan_seconds = Makespan(durations);
  return result;
}

}  // namespace smartmeter::cluster
