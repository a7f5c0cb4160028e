#ifndef SMARTMETER_EXEC_PLAN_EXECUTOR_H_
#define SMARTMETER_EXEC_PLAN_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "cluster/task_scheduler.h"
#include "common/result.h"
#include "core/three_line_task.h"
#include "engines/task_api.h"
#include "exec/plan.h"
#include "exec/query_context.h"
#include "storage/scan_scope.h"

namespace smartmeter::exec {

/// How a plan's stages are dispatched and priced -- the whole difference
/// between the five engines once their plans share one IR.
struct ExecutionPolicy {
  enum class Dispatch {
    /// Partitions run on the work-stealing ThreadPool; timings are
    /// wall-clock (the single-node engines).
    kLocalPool,
    /// Partitions become simulated cluster tasks: real work runs on the
    /// host, timings are the modeled makespan under `cluster` (Hive,
    /// Spark).
    kSimulatedCluster,
  };
  Dispatch dispatch = Dispatch::kLocalPool;
  /// Intra-query parallelism under kLocalPool.
  int threads = 1;

  // -- Simulated-cluster pricing (ignored under kLocalPool) ---------------
  cluster::ClusterConfig cluster;
  /// Charged once per job (Hadoop job submission / Spark DAG scheduling).
  double job_overhead_seconds = 0.0;
  double task_startup_seconds = 0.0;

  /// What "memory" means for this engine's report.
  enum class MemoryModel {
    kNone,
    /// Busiest task's bytes x slots per node (Hive: nothing is resident
    /// between jobs).
    kPeakTaskTimesSlots,
    /// Resident collections / nodes + per-slot task buffers (Spark: RDDs
    /// stay cached).
    kResidentPlusTaskBuffers,
  };
  MemoryModel memory_model = MemoryModel::kNone;
  /// Task buffer unit for kResidentPlusTaskBuffers.
  int64_t block_bytes = 0;

  /// One-line policy summary for plan goldens and logs.
  std::string DebugString() const;
};

/// What one stage contributed: simulated seconds under cluster dispatch,
/// wall-clock otherwise, so stage rows sum to the task's reported time.
/// The fault fields count what the simulated cluster injected into this
/// stage's waves (always zero under kLocalPool or a healthy cluster).
struct StageTiming {
  std::string name;
  double seconds = 0.0;
  int partitions = 1;
  int64_t retries = 0;
  int64_t stragglers = 0;
  int64_t speculative_launched = 0;
  int64_t speculative_wins = 0;
};

/// What one plan execution measured.
struct PlanRunMetrics {
  double seconds = 0.0;
  bool simulated = false;
  core::ThreeLinePhases phases;
  int64_t modeled_memory_bytes = 0;
  std::vector<StageTiming> stages;
  /// Whole-plan fault ledger (the per-stage rows sum to this).
  cluster::WaveFaultStats faults;
  /// Block-index accounting summed over every batch scan: how many
  /// compressed blocks the scans pruned vs. decoded and the bytes read
  /// vs. materialized. All zero for unindexed sources.
  storage::ScanStats scan;
};

/// Runs physical plans: owns partitioning, dispatch (ThreadPool waves or
/// simulated cluster waves), per-partition QueryContext deadline/cancel
/// checks, and per-stage observability (plan.stage.<name> trace spans,
/// plan.stage.<name>.ns wall-clock counters for local dispatch and
/// plan.stage.<name>.sim_ns simulated-seconds counters for cluster
/// dispatch). Engines build plans; this is the only place that executes
/// them.
class PlanExecutor {
 public:
  /// Executes `plan` under `policy`. `results` may be null when only
  /// timing is wanted. Returns kCancelled / kDeadlineExceeded as soon as
  /// a partition boundary (or a kernel's per-household poll) observes
  /// the stopped context.
  Result<PlanRunMetrics> Run(const QueryContext& ctx, const Plan& plan,
                             const ExecutionPolicy& policy,
                             engines::TaskResultSet* results);

  /// Gathers already-computed partial result sets through the plan IR's
  /// Materialize and Merge stages — the reduce half of the serving
  /// layer's scatter-gather path. Partials merge in vector order;
  /// `sort_by_household` then applies the canonical Merge ordering.
  /// Stage rows ("materialize", "merge") land in the returned metrics
  /// exactly as they do for a full plan run.
  Result<PlanRunMetrics> RunGather(const QueryContext& ctx,
                                   std::vector<engines::TaskResultSet> partials,
                                   bool sort_by_household,
                                   engines::TaskResultSet* results);
};

}  // namespace smartmeter::exec

#endif  // SMARTMETER_EXEC_PLAN_EXECUTOR_H_
