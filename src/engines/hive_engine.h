#ifndef SMARTMETER_ENGINES_HIVE_ENGINE_H_
#define SMARTMETER_ENGINES_HIVE_ENGINE_H_

#include <memory>
#include <vector>

#include "cluster/block_store.h"
#include "cluster/cost_model.h"
#include "engines/engine.h"
#include "exec/plan.h"
#include "table/table_reader.h"

namespace smartmeter::engines {

/// Models Hive on Hadoop/HDFS (Sections 5.1 and 5.4): every task is one
/// or more MapReduce jobs over input splits, with the plan shape decided
/// by the data format exactly as in the paper:
///
///  * format 1 (one reading per line, kSingleCsv): a UDAF plan -- map
///    parses rows, a full shuffle groups readings by household, reduce
///    assembles the series and runs the algorithm.
///  * format 2 (one household per line, kHouseholdLines): a generic-UDF,
///    map-only plan; the temperature series ships via distributed cache.
///  * format 3 (many whole-household files, kWholeFileDir): either a
///    UDTF plan (map-only over a non-splittable file format) or a UDAF
///    plan (shuffle like format 1) -- Figure 18 compares both.
///
/// Similarity search is implemented the way the paper implemented it in
/// Hive: as a self-join whose plan cannot use map-side joins, so the
/// series table is re-shuffled to every reducer (Figure 13d's gap).
///
/// Reported times are simulated cluster seconds; real kernels run on the
/// host and their measured CPU time is combined with modeled I/O costs.
class HiveEngine : public AnalyticsEngine {
 public:
  enum class Format3Style { kUdtf, kUdaf };

  struct Options {
    cluster::ClusterConfig cluster;
    /// HDFS block size for splittable formats; small by default so that
    /// scaled-down benches still produce multi-task jobs.
    int64_t block_bytes = 4 << 20;
    Format3Style format3_style = Format3Style::kUdtf;
  };

  explicit HiveEngine(Options options) : options_(std::move(options)) {}

  std::string_view name() const override { return "hive"; }
  bool is_cluster_engine() const override { return true; }
  Result<double> Attach(const table::DataSource& source) override;
  Result<double> WarmUp() override { return 0.0; }  // Hive has no warm cache.
  void DropWarmData() override {}
  using AnalyticsEngine::RunTask;
  Result<TaskRunMetrics> RunTask(const exec::QueryContext& ctx,
                                 const TaskOptions& options,
                                 TaskResultSet* results) override;
  void SetThreads(int num_threads) override { threads_ = num_threads; }
  int threads() const override { return threads_; }

  /// Builds the physical plan for one task over the attached layout: a
  /// sort-merge shuffle for the UDAF plans, a fused map-only wave for the
  /// UDF/UDTF plans, and a second self-join job for similarity whose
  /// every task re-reads the series table through the shuffle.
  Result<exec::Plan> BuildPlan(const TaskOptions& options) const;

  /// The Hive pricing policy: simulated dispatch, Hadoop's heavy job and
  /// task startup, nothing resident between jobs.
  exec::ExecutionPolicy policy() const;

  /// Reconfigures the simulated cluster (e.g. Figure 14's 4..16 nodes).
  void SetClusterConfig(const cluster::ClusterConfig& config);
  const Options& options() const { return options_; }

 private:
  Options options_;
  table::DataSource source_;
  std::unique_ptr<cluster::BlockStore> hdfs_;
  // Open handle to an attached SMCOLV1/SMCOLV2 file; its block index is
  // registered with `hdfs_` so columnar splits align with the format's
  // own compression blocks, and every simulated task reads through it.
  std::shared_ptr<table::ColumnFileReader> columnar_reader_;
  int threads_ = 1;
};

}  // namespace smartmeter::engines

#endif  // SMARTMETER_ENGINES_HIVE_ENGINE_H_
