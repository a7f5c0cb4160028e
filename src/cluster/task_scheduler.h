#ifndef SMARTMETER_CLUSTER_TASK_SCHEDULER_H_
#define SMARTMETER_CLUSTER_TASK_SCHEDULER_H_

#include <functional>
#include <vector>

#include "cluster/cost_model.h"
#include "common/result.h"
#include "common/status.h"

namespace smartmeter::cluster {

/// Cost ledger of one executed task. `compute_seconds` is *measured* (the
/// thread CPU time the task's real work took on the host); the byte
/// counters are converted to modeled I/O time by the scheduler.
struct TaskStats {
  double compute_seconds = 0.0;
  int64_t input_bytes = 0;     // Scanned from (simulated) disk.
  int64_t shuffle_bytes = 0;   // Written to / read from a shuffle.
  int files_opened = 0;
  double fixed_seconds = 0.0;  // Extra modeled time the task charges.
};

/// Returns the current thread's CPU time in seconds; the scheduler uses
/// it so host-side oversubscription (running 192 simulated slots on 2
/// cores) does not distort per-task compute measurements.
double ThreadCpuSeconds();

/// What the fault injection did to one wave of tasks: counts surfaced as
/// obs counters, per-stage report fields, and scenario-fuzzer oracles.
struct WaveFaultStats {
  int64_t retries = 0;       // Failed attempts that were re-run.
  int64_t stragglers = 0;    // Attempts that drew a straggler multiplier.
  int64_t speculative_launched = 0;
  int64_t speculative_wins = 0;  // Backup copy beat the original.
  double backoff_seconds = 0.0;  // Total simulated retry backoff.
  double wasted_seconds = 0.0;   // Simulated time lost to failed attempts.

  void Accumulate(const WaveFaultStats& other) {
    retries += other.retries;
    stragglers += other.stragglers;
    speculative_launched += other.speculative_launched;
    speculative_wins += other.speculative_wins;
    backoff_seconds += other.backoff_seconds;
    wasted_seconds += other.wasted_seconds;
  }
  bool any() const {
    return retries != 0 || stragglers != 0 || speculative_launched != 0;
  }
};

/// A wave's simulated makespan plus its fault ledger.
struct WaveResult {
  double makespan_seconds = 0.0;
  WaveFaultStats faults;
};

/// Per-wave knobs that are not part of the cluster's static shape.
struct WaveOptions {
  /// Distinguishes the waves of one plan execution so each draws an
  /// independent (but seed-deterministic) fault stream.
  uint64_t wave_salt = 0;
  /// Polled between simulated retry attempts; returning non-OK aborts
  /// the wave promptly (a deadline expiring while a failed task sits in
  /// backoff must not keep simulating attempts).
  std::function<Status()> stop_check;
};

/// Executes a set of tasks with real work on the host and computes the
/// simulated makespan of running them on `config` (greedy list
/// scheduling: each task goes to the earliest-free slot, in input order —
/// the same policy as Hadoop/Spark FIFO within a stage).
///
/// Each task function performs its real work and fills TaskStats. Task
/// simulated duration =
///   startup + files_opened * open_cost + input_mb * scan_cost
///           + shuffle_mb * shuffle_cost + network + fixed + compute,
/// then `config.faults` perturbs it: straggler multipliers, failed
/// attempts with exponential backoff (the job aborts once a task burns
/// max_task_attempts), and speculative backup copies for slow tasks.
/// The host-side real work runs exactly once per task regardless of how
/// many simulated attempts its retries model.
class TaskWaveRunner {
 public:
  using TaskFn = std::function<Status(TaskStats*)>;

  TaskWaveRunner(const ClusterConfig& config, double task_startup_seconds);

  /// Runs every task (in parallel on the host up to the hardware's
  /// concurrency) and returns the simulated makespan plus fault counts.
  /// Fails with the first task error, with kAborted once a task exhausts
  /// its attempts, or with the stop_check's status when it trips.
  Result<WaveResult> RunWave(std::vector<TaskFn>* tasks,
                             const WaveOptions& options);

  /// Simulated duration of a single task under this runner's flat model
  /// (no topology, no faults).
  double SimulatedSeconds(const TaskStats& stats) const;

  /// Extra network transfer time of `shuffle_bytes` for the task at
  /// `task_index` under the configured rack topology (zero when
  /// topology is disabled). Bytes arrive uniformly from all nodes, so
  /// the in-rack share rides the intra-rack link and the rest crosses
  /// the core switch.
  double TopologyNetworkSeconds(int64_t shuffle_bytes, size_t task_index)
      const;

  /// Makespan of durations list-scheduled onto the cluster's slots.
  double Makespan(const std::vector<double>& durations) const;

 private:
  ClusterConfig config_;
  double task_startup_seconds_;
};

}  // namespace smartmeter::cluster

#endif  // SMARTMETER_CLUSTER_TASK_SCHEDULER_H_
