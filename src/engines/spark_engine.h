#ifndef SMARTMETER_ENGINES_SPARK_ENGINE_H_
#define SMARTMETER_ENGINES_SPARK_ENGINE_H_

#include <memory>
#include <vector>

#include "cluster/block_store.h"
#include "cluster/cost_model.h"
#include "engines/engine.h"
#include "exec/plan.h"
#include "table/table_reader.h"

namespace smartmeter::engines {

/// Models Spark (Sections 5.1 and 5.4): jobs are dataflow DAGs over
/// in-memory partitioned collections. Narrow stages pipeline without
/// shuffles; grouping is a wide stage; similarity search uses broadcast
/// variables and a map-side join (the design that makes Spark's Figure
/// 13d so much faster than Hive's self-join).
///
/// Data-format plans mirror the paper:
///  * format 1: read rows -> groupBy household (shuffle) -> compute.
///  * format 2: read household lines -> compute (map-only, temperature
///    broadcast).
///  * format 3: one partition per whole file -> group within partition
///    -> compute. Spark pays serial driver work per partition and keeps
///    file handles open, so many small files degrade it (Figure 18) and
///    ~100k files abort with "too many open files".
///
/// Reported times are simulated cluster seconds.
class SparkEngine : public AnalyticsEngine {
 public:
  struct Options {
    cluster::ClusterConfig cluster;
    int64_t block_bytes = 4 << 20;
  };

  explicit SparkEngine(Options options) : options_(std::move(options)) {}

  std::string_view name() const override { return "spark"; }
  bool is_cluster_engine() const override { return true; }
  Result<double> Attach(const table::DataSource& source) override;
  Result<double> WarmUp() override { return 0.0; }
  void DropWarmData() override {}
  using AnalyticsEngine::RunTask;
  Result<TaskRunMetrics> RunTask(const exec::QueryContext& qctx,
                                 const TaskOptions& options,
                                 TaskResultSet* results) override;
  void SetThreads(int num_threads) override { threads_ = num_threads; }
  int threads() const override { return threads_; }

  /// Builds the physical plan for one task over the attached layout: a
  /// dataflow shuffle for format 1, a broadcast map for format 2,
  /// whole-file partitions for format 3; similarity broadcasts the
  /// assembled series table for a map-side join.
  Result<exec::Plan> BuildPlan(const TaskOptions& options) const;

  /// The Spark pricing policy: simulated dispatch, Spark's cheap task
  /// startup, resident-RDD memory accounting.
  exec::ExecutionPolicy policy() const;

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

#endif  // SMARTMETER_ENGINES_SPARK_ENGINE_H_
