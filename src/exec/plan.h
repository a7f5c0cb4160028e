#ifndef SMARTMETER_EXEC_PLAN_H_
#define SMARTMETER_EXEC_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/task_scheduler.h"
#include "common/result.h"
#include "engines/task_api.h"
#include "storage/scan_scope.h"
#include "table/columnar_batch.h"

namespace smartmeter::exec {

/// One reading as it flows between the stages of a cluster-style plan
/// (the shuffled unit of the paper's data format 1). Sized so the
/// modeled wire format matches the (household, hour-record) pairs the
/// simulated frameworks shuffle: 8 key bytes + 24 payload bytes.
struct ReadingRecord {
  int64_t household_id = 0;
  int32_t hour = 0;
  double consumption = 0.0;
  double temperature = 0.0;
};

/// One household between stages: either an assembled series (consumption
/// aligned by hour, optional per-household temperature) or the raw
/// shuffled readings still awaiting assembly. Assembly happens inside
/// the kernel stage so its CPU time lands in that stage's (simulated)
/// task, exactly where the reduce/MapPartitions work ran before.
struct SeriesRecord {
  int64_t household_id = 0;
  std::vector<double> consumption;
  std::vector<double> temperature;
  /// Unassembled shuffle output; empty once assembled.
  std::vector<ReadingRecord> raw;
};

/// Modeled serialized sizes on the simulated wire.
inline int64_t ApproxReadingBytes() { return 32; }
inline int64_t ApproxSeriesBytes(const SeriesRecord& record) {
  return 24 + static_cast<int64_t>(record.consumption.size()) * 8;
}

/// A scanned batch plus whatever owns the memory it views (a table
/// reader, a parsed dataset); null owner means the caller guarantees
/// lifetime (resident engine state). `stats` reports what the scan cost
/// against a block-indexed store (zero for unindexed sources).
struct BatchScan {
  table::ColumnarBatch batch;
  std::shared_ptr<const void> owner;
  storage::ScanStats stats;
};

/// Scan: materializes the plan's input. Exactly one of the three
/// callbacks is set, matching `kind`:
///  * kBatch    -- one columnar batch (resident, mmap'd, or parsed); the
///                 whole-dataset granularity of the single-node engines.
///  * kReadings -- per-partition reading rows (splittable cluster scans
///                 ahead of a shuffle, or format 3's whole-file splits
///                 grouped later in-partition).
///  * kSeries   -- per-partition assembled households (format 2 lines,
///                 one file per household).
/// Partitioned callbacks fill cluster::TaskStats with the partition's
/// modeled costs (input bytes, files opened, fixed seconds); the
/// executor prices them only under simulated-cluster dispatch.
struct ScanOp {
  enum class Kind { kBatch, kReadings, kSeries };
  Kind kind = Kind::kBatch;
  /// Display name of the storage being scanned ("resident-batch",
  /// "row-store", "splits", "household-files", ...).
  std::string source;
  int partitions = 1;
  std::function<Result<BatchScan>()> scan_batch;
  /// Optional scoped variant of `scan_batch`: views only the rows and
  /// hours of a ScanScope and reports the scope's block-index coverage
  /// of an SMCOLV2 store. When set, the executor pushes the next
  /// kernel's row scope down into the scan (and clears it from the
  /// kernel) instead of scanning everything and slicing later.
  /// Similarity plans never push down — their candidate table must stay
  /// the whole batch.
  std::function<Result<BatchScan>(const storage::ScanScope&)>
      scan_batch_scoped;
  std::function<Status(int partition, std::vector<ReadingRecord>* out,
                       cluster::TaskStats* stats)>
      scan_readings;
  std::function<Status(int partition, std::vector<SeriesRecord>* out,
                       cluster::TaskStats* stats)>
      scan_series;
  /// Serial driver-side seconds charged with this scan under simulated
  /// dispatch (Spark's per-partition scheduling, wholeTextFiles listing).
  double driver_seconds = 0.0;
  /// Shared temperature column for scans whose records carry none (the
  /// format-2 sidecar, broadcast/distributed-cache shipped).
  std::shared_ptr<const std::vector<double>> shared_temperature;
};

/// Shuffle: regroups reading records by household.
///  * kDataflow  -- Spark-style wide stage: a bucket wave and a merge
///                  wave, both charged shuffle bytes (the 2 extra task
///                  waves of a dataflow groupByKey).
///  * kSortMerge -- Hadoop-style sort-shuffle: the regroup itself is
///                  host-side bookkeeping; its read cost is charged to
///                  the next (reduce) wave's tasks, as in Hadoop.
struct ShuffleOp {
  enum class Strategy { kDataflow, kSortMerge };
  Strategy strategy = Strategy::kSortMerge;
  /// Output partitions; 0 means one per cluster slot (simulated) or one
  /// per thread (local).
  int partitions = 0;
};

/// KernelMap: runs one of the four task kernels over whatever form the
/// upstream stages produced (batch, readings, or series).
struct KernelOp {
  engines::TaskOptions options;
  /// Stream scan partitions straight into the kernel: one pass, one
  /// wave, one household resident per worker (Matlab's file-at-a-time
  /// loop; Hive's map-only UDF/UDTF plans).
  bool fuse_scan = false;
  /// Modeled bytes shipped to every node before compute (broadcast
  /// variable / distributed cache).
  int64_t broadcast_bytes = 0;
  /// Similarity only: broadcast the assembled series table + norms
  /// (sized after assembly, so flagged rather than precomputed).
  bool broadcast_series_table = false;
  /// Similarity only: every join task re-reads the full series table
  /// through the shuffle (Hive's self-join without map-side joins).
  bool shuffle_table_per_task = false;
  /// Extra driver overhead when this kernel launches a second job.
  double extra_overhead_seconds = 0.0;
};

/// Materialize: gathers per-partition partial result sets, in partition
/// order (deterministic for file-aligned plans).
struct MaterializeOp {};

/// Merge: canonical household order for plans whose partitioning does
/// not already produce it (everything downstream of a shuffle).
struct MergeOp {
  bool sort_by_household = true;
};

using PlanOp =
    std::variant<ScanOp, ShuffleOp, KernelOp, MaterializeOp, MergeOp>;

/// One stage of a physical plan. `name` keys the per-stage metrics
/// (plan.stage.<name>.ns / .sim_ns counters, report rows), so keep it
/// short and stable: "scan", "shuffle", "kernel", "materialize", "merge".
struct PlanStage {
  std::string name;
  PlanOp op;
};

/// A physical execution plan: what to run, in stage order. How to run it
/// (dispatch backend, threads, cluster model) lives in ExecutionPolicy;
/// the same plan shape priced under two policies is exactly the paper's
/// platform comparison.
struct Plan {
  /// "engine/task/layout", used in labels and DebugString.
  std::string label;
  std::vector<PlanStage> stages;

  /// Stable, human-diffable plan shape (no timings, no data-dependent
  /// float formatting) -- the golden-test surface for plan reviews.
  std::string DebugString() const;
};

}  // namespace smartmeter::exec

#endif  // SMARTMETER_EXEC_PLAN_H_
