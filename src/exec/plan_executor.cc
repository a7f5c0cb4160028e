#include "exec/plan_executor.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/histogram_task.h"
#include "core/par_task.h"
#include "core/similarity_task.h"
#include "core/task_types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smartmeter::exec {

namespace {

using cluster::TaskStats;
using cluster::TaskWaveRunner;
using engines::TaskOptions;
using engines::TaskResultSet;

constexpr double kBytesPerMb = 1024.0 * 1024.0;

/// Modeled wire sizes on the simulated shuffle: an 8-byte household key,
/// a 24-byte hour record, a 16-byte vector header ahead of a batched
/// value list.
constexpr int64_t kKeyBytes = 8;
constexpr int64_t kRecordPayloadBytes = 24;
constexpr int64_t kVectorHeaderBytes = 16;

/// Static span labels (span names are not owned by the trace buffer).
const char* StageSpanName(const PlanOp& op) {
  if (std::get_if<ScanOp>(&op) != nullptr) return "plan.stage.scan";
  if (std::get_if<ShuffleOp>(&op) != nullptr) return "plan.stage.shuffle";
  if (std::get_if<KernelOp>(&op) != nullptr) return "plan.stage.kernel";
  if (std::get_if<MaterializeOp>(&op) != nullptr) {
    return "plan.stage.materialize";
  }
  return "plan.stage.merge";
}

const char* TaskSpanName(core::TaskType task) {
  switch (task) {
    case core::TaskType::kHistogram:
      return "task.histogram";
    case core::TaskType::kThreeLine:
      return "task.three_line";
    case core::TaskType::kPar:
      return "task.par";
    case core::TaskType::kSimilarity:
      return "task.similarity";
  }
  return "task.unknown";
}

/// Collects the first error seen across parallel workers.
class ErrorCollector {
 public:
  void Record(const Status& status) {
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) first_ = status;
  }
  const Status& first() const { return first_; }

 private:
  std::mutex mu_;
  Status first_ = Status::OK();
};

/// Assembles a raw shuffled record in place: sort by hour, split into
/// aligned consumption / temperature columns.
void AssembleRecord(SeriesRecord* record) {
  if (record->raw.empty()) return;
  std::sort(record->raw.begin(), record->raw.end(),
            [](const ReadingRecord& a, const ReadingRecord& b) {
              return a.hour < b.hour;
            });
  record->consumption.reserve(record->raw.size());
  record->temperature.reserve(record->raw.size());
  for (const ReadingRecord& r : record->raw) {
    record->consumption.push_back(r.consumption);
    record->temperature.push_back(r.temperature);
  }
  record->raw.clear();
  record->raw.shrink_to_fit();
}

/// Runs one per-household kernel over an assembled series record and
/// appends the result. Similarity is not per-household and is handled by
/// the gather path in the executor.
Status ComputeSeries(const QueryContext& ctx, const TaskOptions& options,
                     SeriesRecord* record,
                     const std::vector<double>* shared_temperature,
                     core::ThreeLinePhases* phases, TaskResultSet* out) {
  AssembleRecord(record);
  std::span<const double> temperature(record->temperature);
  if (temperature.empty() && shared_temperature != nullptr) {
    temperature = std::span<const double>(*shared_temperature);
  }
  switch (options.task()) {
    case core::TaskType::kHistogram: {
      SM_ASSIGN_OR_RETURN(
          stats::EquiWidthHistogram hist,
          core::ComputeConsumptionHistogram(
              record->consumption, options.Get<core::HistogramOptions>(),
              &ctx));
      out->Mutable<core::HistogramResult>().push_back(
          {record->household_id, std::move(hist)});
      return Status::OK();
    }
    case core::TaskType::kThreeLine: {
      SM_ASSIGN_OR_RETURN(
          core::ThreeLineResult fit,
          core::ComputeThreeLine(record->consumption, temperature,
                                 record->household_id,
                                 options.Get<core::ThreeLineOptions>(),
                                 phases, &ctx));
      out->Mutable<core::ThreeLineResult>().push_back(std::move(fit));
      return Status::OK();
    }
    case core::TaskType::kPar: {
      SM_ASSIGN_OR_RETURN(
          core::DailyProfileResult profile,
          core::ComputeDailyProfile(record->consumption, temperature,
                                    record->household_id,
                                    options.Get<core::ParOptions>(), &ctx));
      out->Mutable<core::DailyProfileResult>().push_back(std::move(profile));
      return Status::OK();
    }
    case core::TaskType::kSimilarity:
      return Status::Internal("similarity is not a per-household kernel");
  }
  return Status::Internal("unreachable");
}

/// One plan execution's mutable state, so PlanExecutor itself stays
/// stateless and re-entrant.
class Execution {
 public:
  Execution(const QueryContext& ctx, const Plan& plan,
            const ExecutionPolicy& policy, TaskResultSet* results)
      : ctx_(ctx),
        plan_(plan),
        policy_(policy),
        cluster_(policy.dispatch ==
                 ExecutionPolicy::Dispatch::kSimulatedCluster),
        results_(results) {}

  Result<PlanRunMetrics> Run();

  /// Preloads partial result sets as if a kernel stage had produced
  /// them, so a materialize+merge plan can gather results computed
  /// elsewhere (the serving layer's scatter-gather path).
  void SeedPartials(std::vector<TaskResultSet> partials) {
    partials_ = std::move(partials);
  }

 private:
  using PartitionFn = std::function<Status(int partition, TaskStats* stats)>;

  ThreadPool& pool() {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(std::max(1, policy_.threads));
    }
    return *pool_;
  }

  /// Dispatches one unit of work per partition: a ThreadPool loop under
  /// kLocalPool, one simulated cluster task per partition otherwise.
  /// Every unit re-checks the query context first, so cancellation lands
  /// at partition boundaries even when a kernel never polls.
  Status RunPartitions(size_t count, const PartitionFn& body);

  /// Times a stage body (wall-clock locally, simulated-seconds delta
  /// under cluster dispatch) and records its row + counter + span,
  /// including the fault events its waves injected.
  template <typename Fn>
  Status TimedStage(const PlanStage& stage, int partitions, Fn&& body) {
    obs::SpanScope span(StageSpanName(stage.op));
    Stopwatch watch;
    const double simulated_before = simulated_seconds_;
    const cluster::WaveFaultStats faults_before = fault_stats_;
    SM_RETURN_IF_ERROR(body());
    StageTiming row;
    row.name = stage.name;
    row.seconds = cluster_ ? simulated_seconds_ - simulated_before
                           : watch.ElapsedSeconds();
    row.partitions = partitions;
    row.retries = fault_stats_.retries - faults_before.retries;
    row.stragglers = fault_stats_.stragglers - faults_before.stragglers;
    row.speculative_launched = fault_stats_.speculative_launched -
                               faults_before.speculative_launched;
    row.speculative_wins =
        fault_stats_.speculative_wins - faults_before.speculative_wins;
    AddStageRow(std::move(row));
    return Status::OK();
  }

  void AddStageRow(const std::string& name, double seconds, int partitions) {
    StageTiming row;
    row.name = name;
    row.seconds = seconds;
    row.partitions = partitions;
    AddStageRow(std::move(row));
  }

  /// Wall-clock and simulated seconds never share a counter: cluster
  /// dispatch bills `.sim_ns`, local dispatch `.ns`.
  void AddStageRow(StageTiming row) {
    obs::MetricsRegistry::Global()
        .GetCounter("plan.stage." + row.name + (cluster_ ? ".sim_ns" : ".ns"))
        ->Add(static_cast<int64_t>(row.seconds * 1e9));
    stage_rows_.push_back(std::move(row));
  }

  // -- Stage runners --------------------------------------------------------
  Status RunScan(const PlanStage& stage, const ScanOp& op,
                 bool sort_merge_follows, const KernelOp* next_kernel);
  Status RunShuffle(const PlanStage& stage, const ShuffleOp& op);
  Status RunKernel(const PlanStage& stage, const KernelOp& op);
  Status RunFused(const PlanStage& scan_stage, const ScanOp& scan,
                  const PlanStage& kernel_stage, const KernelOp& kernel);
  Status RunMaterialize(const PlanStage& stage);
  Status RunMerge(const PlanStage& stage, const MergeOp& op);

  // -- Kernel input forms ---------------------------------------------------
  Status BatchKernel(const KernelOp& op);
  Status SeriesKernel(const KernelOp& op);
  Status SimilarityOverSeries(const KernelOp& op);

  void ChargeBroadcast(int64_t bytes) {
    simulated_seconds_ +=
        static_cast<double>(bytes) / kBytesPerMb *
        policy_.cluster.cost.broadcast_seconds_per_mb_per_node *
        policy_.cluster.num_nodes;
  }

  int DefaultPartitions() const {
    return cluster_ ? std::max(1, policy_.cluster.total_slots())
                    : std::max(1, policy_.threads);
  }

  const QueryContext& ctx_;
  const Plan& plan_;
  const ExecutionPolicy& policy_;
  const bool cluster_;
  TaskResultSet* results_;

  std::unique_ptr<ThreadPool> pool_;

  // Intermediate data, in whichever form the last stage produced.
  table::ColumnarBatch batch_;
  std::shared_ptr<const void> batch_owner_;
  bool have_batch_ = false;
  /// True when the scan already restricted the batch to the kernel's row
  /// scope (scope pushdown): the kernel then runs over the whole —
  /// already-scoped — batch instead of re-slicing it.
  bool scan_scope_applied_ = false;
  std::vector<std::vector<ReadingRecord>> readings_;
  std::vector<std::vector<SeriesRecord>> series_;
  /// Sort-merge shuffle read bytes, billed to the consuming wave's tasks
  /// (Hadoop charges the reduce side; the host regroup itself is free).
  std::vector<int64_t> series_read_bytes_;
  std::shared_ptr<const std::vector<double>> shared_temperature_;

  // Results in flight.
  std::vector<TaskResultSet> partials_;
  TaskResultSet full_;
  bool have_full_ = false;

  // Accounting.
  std::mutex mu_;
  double simulated_seconds_ = 0.0;
  int64_t peak_task_bytes_ = 0;
  int64_t cached_bytes_ = 0;
  core::ThreeLinePhases phases_;
  std::vector<StageTiming> stage_rows_;
  storage::ScanStats scan_stats_;
  /// Fault ledger across waves; RunPartitions is called serially, so no
  /// lock is needed. The wave counter salts each wave's fault stream.
  cluster::WaveFaultStats fault_stats_;
  uint64_t wave_counter_ = 0;
};

Status Execution::RunPartitions(size_t count, const PartitionFn& body) {
  if (count == 0) return Status::OK();
  if (!cluster_) {
    ErrorCollector errors;
    pool().ParallelFor(count, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        Status guard = ctx_.CheckNotStopped();
        if (!guard.ok()) {
          errors.Record(guard);
          return;
        }
        TaskStats ignored;
        errors.Record(body(static_cast<int>(i), &ignored));
        if (!errors.first().ok()) return;
      }
    });
    return errors.first();
  }
  std::vector<TaskWaveRunner::TaskFn> tasks;
  tasks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tasks.push_back([this, &body, i](TaskStats* stats) -> Status {
      SM_RETURN_IF_ERROR(ctx_.CheckNotStopped());
      SM_RETURN_IF_ERROR(body(static_cast<int>(i), stats));
      const int64_t task_bytes = stats->input_bytes + stats->shuffle_bytes;
      std::lock_guard<std::mutex> lock(mu_);
      peak_task_bytes_ = std::max(peak_task_bytes_, task_bytes);
      return Status::OK();
    });
  }
  TaskWaveRunner runner(policy_.cluster, policy_.task_startup_seconds);
  cluster::WaveOptions wave;
  wave.wave_salt = wave_counter_++;
  wave.stop_check = [this]() { return ctx_.CheckNotStopped(); };
  SM_ASSIGN_OR_RETURN(cluster::WaveResult result,
                      runner.RunWave(&tasks, wave));
  simulated_seconds_ += result.makespan_seconds;
  fault_stats_.Accumulate(result.faults);
  return Status::OK();
}

Status Execution::RunScan(const PlanStage& stage, const ScanOp& op,
                          bool sort_merge_follows,
                          const KernelOp* next_kernel) {
  return TimedStage(stage, op.partitions, [&]() -> Status {
    shared_temperature_ = op.shared_temperature;
    if (op.kind == ScanOp::Kind::kBatch) {
      // Scope pushdown: when the scan knows how to materialize only a
      // row window and the next kernel is restricted to one, scan just
      // that window (an indexed store then skips whole blocks) and let
      // the kernel run unscoped over the result. Similarity is exempt —
      // its candidate table must stay the full batch even when the
      // query rows are scoped.
      if (op.scan_batch_scoped && next_kernel != nullptr &&
          !next_kernel->options.scope().whole() &&
          next_kernel->options.task() != core::TaskType::kSimilarity) {
        const engines::RowScope& rows = next_kernel->options.scope();
        storage::ScanScope scope;
        scope.row_begin = rows.begin;
        scope.row_count = rows.count;
        SM_ASSIGN_OR_RETURN(BatchScan scan, op.scan_batch_scoped(scope));
        SM_RETURN_IF_ERROR(scan.batch.Validate());
        batch_ = std::move(scan.batch);
        batch_owner_ = std::move(scan.owner);
        scan_stats_.Add(scan.stats);
        have_batch_ = true;
        scan_scope_applied_ = true;
        return Status::OK();
      }
      if (!op.scan_batch) return Status::Internal("scan has no batch source");
      SM_ASSIGN_OR_RETURN(BatchScan scan, op.scan_batch());
      SM_RETURN_IF_ERROR(scan.batch.Validate());
      batch_ = std::move(scan.batch);
      batch_owner_ = std::move(scan.owner);
      scan_stats_.Add(scan.stats);
      have_batch_ = true;
      scan_scope_applied_ = false;
      return Status::OK();
    }
    if (cluster_) simulated_seconds_ += op.driver_seconds;
    const size_t parts = static_cast<size_t>(std::max(1, op.partitions));
    const bool readings = op.kind == ScanOp::Kind::kReadings;
    if (readings) {
      if (!op.scan_readings) {
        return Status::Internal("scan has no readings source");
      }
      readings_.assign(parts, {});
    } else {
      if (!op.scan_series) {
        return Status::Internal("scan has no series source");
      }
      series_.assign(parts, {});
    }
    return RunPartitions(parts, [&](int i, TaskStats* stats) -> Status {
      int64_t scanned_bytes = 0;
      if (readings) {
        SM_RETURN_IF_ERROR(op.scan_readings(i, &readings_[i], stats));
        scanned_bytes = ApproxReadingBytes() *
                        static_cast<int64_t>(readings_[i].size());
        if (sort_merge_follows) {
          // Hadoop's map side spills and sends what it emitted; the
          // wave is both scan and shuffle write.
          stats->shuffle_bytes += scanned_bytes;
        }
      } else {
        SM_RETURN_IF_ERROR(op.scan_series(i, &series_[i], stats));
        for (const SeriesRecord& r : series_[i]) {
          scanned_bytes += ApproxSeriesBytes(r);
        }
      }
      if (cluster_) {
        std::lock_guard<std::mutex> lock(mu_);
        cached_bytes_ += scanned_bytes;
      }
      return Status::OK();
    });
  });
}

Status Execution::RunShuffle(const PlanStage& stage, const ShuffleOp& op) {
  const int parts =
      op.partitions > 0 ? op.partitions : DefaultPartitions();
  return TimedStage(stage, parts, [&]() -> Status {
    std::hash<int64_t> hasher;
    if (op.strategy == ShuffleOp::Strategy::kDataflow) {
      // Wide dataflow exchange: a bucket wave charged the written bytes
      // and a merge wave charged the read bytes -- the two extra task
      // waves of a groupByKey.
      std::vector<std::vector<std::map<int64_t, std::vector<ReadingRecord>>>>
          buckets(readings_.size());
      SM_RETURN_IF_ERROR(RunPartitions(
          readings_.size(), [&](int i, TaskStats* stats) -> Status {
            buckets[i].resize(static_cast<size_t>(parts));
            int64_t bytes = 0;
            for (ReadingRecord& r : readings_[i]) {
              bytes += ApproxReadingBytes();
              const size_t p = hasher(r.household_id) %
                               static_cast<size_t>(parts);
              buckets[i][p][r.household_id].push_back(r);
            }
            readings_[i].clear();
            readings_[i].shrink_to_fit();
            stats->shuffle_bytes = bytes;
            return Status::OK();
          }));
      series_.assign(static_cast<size_t>(parts), {});
      int64_t moved_bytes = 0;
      SM_RETURN_IF_ERROR(RunPartitions(
          static_cast<size_t>(parts), [&](int p, TaskStats* stats) -> Status {
            std::map<int64_t, std::vector<ReadingRecord>> merged;
            int64_t bytes = 0;
            for (auto& per_input : buckets) {
              if (static_cast<size_t>(p) >= per_input.size()) continue;
              for (auto& [key, values] : per_input[static_cast<size_t>(p)]) {
                bytes += kKeyBytes + kVectorHeaderBytes +
                         kRecordPayloadBytes *
                             static_cast<int64_t>(values.size());
                auto& dst = merged[key];
                dst.insert(dst.end(),
                           std::make_move_iterator(values.begin()),
                           std::make_move_iterator(values.end()));
              }
            }
            stats->shuffle_bytes = bytes;
            auto& out = series_[static_cast<size_t>(p)];
            out.reserve(merged.size());
            for (auto& [key, values] : merged) {
              SeriesRecord record;
              record.household_id = key;
              record.raw = std::move(values);
              out.push_back(std::move(record));
            }
            std::lock_guard<std::mutex> lock(mu_);
            moved_bytes += bytes;
            return Status::OK();
          }));
      if (cluster_) cached_bytes_ += moved_bytes;
      obs::MetricsRegistry::Global()
          .GetCounter("shuffle.partitions")
          ->Add(parts);
      obs::MetricsRegistry::Global()
          .GetCounter("shuffle.bytes_moved")
          ->Add(moved_bytes);
      readings_.clear();
      return Status::OK();
    }
    // Sort-merge: the regroup is host-side bookkeeping (Hadoop's sort
    // happens inside the already-charged map tasks); the read cost is
    // billed to the consuming wave per partition.
    std::vector<std::map<int64_t, std::vector<ReadingRecord>>> grouped(
        static_cast<size_t>(parts));
    series_read_bytes_.assign(static_cast<size_t>(parts), 0);
    int64_t written_bytes = 0;
    for (auto& partition : readings_) {
      SM_RETURN_IF_ERROR(ctx_.CheckNotStopped());
      for (ReadingRecord& r : partition) {
        const size_t p =
            hasher(r.household_id) % static_cast<size_t>(parts);
        series_read_bytes_[p] += ApproxReadingBytes();
        written_bytes += ApproxReadingBytes();
        grouped[p][r.household_id].push_back(r);
      }
      partition.clear();
      partition.shrink_to_fit();
    }
    readings_.clear();
    series_.assign(static_cast<size_t>(parts), {});
    for (size_t p = 0; p < grouped.size(); ++p) {
      auto& out = series_[p];
      out.reserve(grouped[p].size());
      for (auto& [key, values] : grouped[p]) {
        SeriesRecord record;
        record.household_id = key;
        record.raw = std::move(values);
        out.push_back(std::move(record));
      }
    }
    obs::MetricsRegistry::Global()
        .GetCounter("shuffle.partitions")
        ->Add(parts);
    obs::MetricsRegistry::Global()
        .GetCounter("shuffle.bytes_moved")
        ->Add(written_bytes);
    return Status::OK();
  });
}

Status Execution::BatchKernel(const KernelOp& op) {
  SM_RETURN_IF_ERROR(batch_.Validate());
  ErrorCollector errors;
  const size_t count = batch_.count();
  const TaskOptions& options = op.options;
  // Scoped requests compute only the rows in [first, last). The range
  // kernels index `out` by absolute batch row, so the buffer spans
  // [0, last) and the untouched prefix is trimmed before materialize.
  // When the scan already pushed the scope down, the batch holds exactly
  // the scoped rows and the kernel covers all of them.
  const engines::RowScope scope =
      scan_scope_applied_ ? engines::RowScope{} : options.scope();
  const size_t first = scope.First(count);
  const size_t last = scope.Last(count);
  switch (options.task()) {
    case core::TaskType::kHistogram: {
      const auto& histogram = options.Get<core::HistogramOptions>();
      std::vector<core::HistogramResult> out(last);
      pool().ParallelFor(last - first, [&](size_t begin, size_t end) {
        Status guard = ctx_.CheckNotStopped();
        if (!guard.ok()) {
          errors.Record(guard);
          return;
        }
        errors.Record(core::ComputeHistogramRange(
            batch_, first + begin, first + end, histogram, &ctx_, out));
      });
      SM_RETURN_IF_ERROR(errors.first());
      out.erase(out.begin(), out.begin() + static_cast<ptrdiff_t>(first));
      full_.Mutable<core::HistogramResult>() = std::move(out);
      break;
    }
    case core::TaskType::kThreeLine: {
      const auto& three_line = options.Get<core::ThreeLineOptions>();
      std::vector<core::ThreeLineResult> out(last);
      pool().ParallelFor(last - first, [&](size_t begin, size_t end) {
        Status guard = ctx_.CheckNotStopped();
        if (!guard.ok()) {
          errors.Record(guard);
          return;
        }
        core::ThreeLinePhases local_phases;
        errors.Record(core::ComputeThreeLineRange(batch_, first + begin,
                                                  first + end, three_line,
                                                  &local_phases, &ctx_, out));
        std::lock_guard<std::mutex> lock(mu_);
        phases_.Accumulate(local_phases);
      });
      SM_RETURN_IF_ERROR(errors.first());
      out.erase(out.begin(), out.begin() + static_cast<ptrdiff_t>(first));
      full_.Mutable<core::ThreeLineResult>() = std::move(out);
      break;
    }
    case core::TaskType::kPar: {
      const auto& par = options.Get<core::ParOptions>();
      std::vector<core::DailyProfileResult> out(last);
      pool().ParallelFor(last - first, [&](size_t begin, size_t end) {
        Status guard = ctx_.CheckNotStopped();
        if (!guard.ok()) {
          errors.Record(guard);
          return;
        }
        errors.Record(core::ComputeDailyProfileRange(
            batch_, first + begin, first + end, par, &ctx_, out));
      });
      SM_RETURN_IF_ERROR(errors.first());
      out.erase(out.begin(), out.begin() + static_cast<ptrdiff_t>(first));
      full_.Mutable<core::DailyProfileResult>() = std::move(out);
      break;
    }
    case core::TaskType::kSimilarity: {
      const auto& similarity = options.Get<engines::SimilarityTaskOptions>();
      // The candidate table is always the full (capped) view set; the
      // scope restricts only which query rows are answered, so a
      // scoped run scores every query row against identical candidates.
      const std::vector<core::SeriesView> views = core::BuildSeriesViews(
          batch_, similarity.households > 0
                      ? static_cast<size_t>(similarity.households)
                      : 0);
      const size_t n = views.size();
      const size_t q_first = options.scope().First(n);
      const size_t q_last = options.scope().Last(n);
      const std::vector<double> norms = core::ComputeNorms(views);
      std::vector<core::SimilarityResult> out(q_last);
      pool().ParallelFor(q_last - q_first, [&](size_t begin, size_t end) {
        Status guard = ctx_.CheckNotStopped();
        if (!guard.ok()) {
          errors.Record(guard);
          return;
        }
        Result<std::vector<core::SimilarityResult>> chunk =
            core::ComputeSimilarityTopKRange(views, norms, q_first + begin,
                                             q_first + end, similarity.search,
                                             &ctx_);
        if (!chunk.ok()) {
          errors.Record(chunk.status());
          return;
        }
        for (size_t i = begin; i < end; ++i) {
          out[q_first + i] = std::move((*chunk)[i - begin]);
        }
      });
      SM_RETURN_IF_ERROR(errors.first());
      out.erase(out.begin(), out.begin() + static_cast<ptrdiff_t>(q_first));
      full_.Mutable<core::SimilarityResult>() = std::move(out);
      break;
    }
  }
  have_full_ = true;
  return Status::OK();
}

Status Execution::SeriesKernel(const KernelOp& op) {
  const bool from_readings = series_.empty() && !readings_.empty();
  const size_t parts = from_readings ? readings_.size() : series_.size();
  partials_.assign(parts, TaskResultSet{});
  const std::vector<double>* shared_temperature = shared_temperature_.get();
  SM_RETURN_IF_ERROR(
      RunPartitions(parts, [&](int p, TaskStats* stats) -> Status {
        core::ThreeLinePhases local_phases;
        std::vector<SeriesRecord> local;
        std::vector<SeriesRecord>* records = nullptr;
        if (from_readings) {
          // No shuffle ran (whole-file splits): group within the
          // partition, the map-side equivalent of format 3's in-task
          // assembly.
          std::map<int64_t, std::vector<ReadingRecord>> grouped;
          for (ReadingRecord& r : readings_[p]) {
            grouped[r.household_id].push_back(r);
          }
          readings_[p].clear();
          readings_[p].shrink_to_fit();
          local.reserve(grouped.size());
          for (auto& [key, values] : grouped) {
            SeriesRecord record;
            record.household_id = key;
            record.raw = std::move(values);
            local.push_back(std::move(record));
          }
          records = &local;
        } else {
          records = &series_[p];
        }
        for (SeriesRecord& record : *records) {
          SM_RETURN_IF_ERROR(ComputeSeries(ctx_, op.options, &record,
                                           shared_temperature, &local_phases,
                                           &partials_[p]));
        }
        if (!series_read_bytes_.empty()) {
          stats->shuffle_bytes += series_read_bytes_[p];
        }
        std::lock_guard<std::mutex> lock(mu_);
        phases_.Accumulate(local_phases);
        return Status::OK();
      }));
  series_read_bytes_.clear();
  series_.clear();
  readings_.clear();
  return Status::OK();
}

Status Execution::SimilarityOverSeries(const KernelOp& op) {
  const auto& similarity = op.options.Get<engines::SimilarityTaskOptions>();
  // Gather the assembled table to the driver, canonically ordered.
  std::vector<SeriesRecord> table;
  for (auto& partition : series_) {
    SM_RETURN_IF_ERROR(ctx_.CheckNotStopped());
    for (SeriesRecord& record : partition) {
      AssembleRecord(&record);
      table.push_back(std::move(record));
    }
  }
  series_.clear();
  series_read_bytes_.clear();
  std::sort(table.begin(), table.end(),
            [](const SeriesRecord& a, const SeriesRecord& b) {
              return a.household_id < b.household_id;
            });
  if (similarity.households > 0 &&
      table.size() > static_cast<size_t>(similarity.households)) {
    table.resize(static_cast<size_t>(similarity.households));
  }
  int64_t table_bytes = 0;
  for (const SeriesRecord& record : table) {
    table_bytes += ApproxSeriesBytes(record);
  }
  std::vector<int64_t> ids;
  std::vector<table::SeriesSlice> slices;
  ids.reserve(table.size());
  slices.reserve(table.size());
  for (const SeriesRecord& record : table) {
    ids.push_back(record.household_id);
    slices.emplace_back(record.consumption);
  }
  SM_ASSIGN_OR_RETURN(table::ColumnarBatch batch,
                      table::ColumnarBatch::FromSlices(
                          std::move(ids), std::move(slices), {}));
  const std::vector<core::SeriesView> views = core::BuildSeriesViews(batch);
  const std::vector<double> norms = core::ComputeNorms(views);
  const size_t n = views.size();
  if (cluster_ && op.broadcast_series_table) {
    // Broadcast the (id, series) table and the norms; parallelize the
    // query ids (Spark's shuffle-free self-join).
    ChargeBroadcast(kVectorHeaderBytes + table_bytes);
    ChargeBroadcast(kVectorHeaderBytes + 8 * static_cast<int64_t>(n));
    cached_bytes_ += 8 * static_cast<int64_t>(n);
  }
  if (!cluster_) {
    // Local: the gathered table is just a batch; run the batch kernel's
    // guided loop over query rows.
    ErrorCollector errors;
    std::vector<core::SimilarityResult> out(n);
    pool().ParallelFor(n, [&](size_t begin, size_t end) {
      Status guard = ctx_.CheckNotStopped();
      if (!guard.ok()) {
        errors.Record(guard);
        return;
      }
      Result<std::vector<core::SimilarityResult>> chunk =
          core::ComputeSimilarityTopKRange(views, norms, begin, end,
                                           similarity.search, &ctx_);
      if (!chunk.ok()) {
        errors.Record(chunk.status());
        return;
      }
      for (size_t i = begin; i < end; ++i) {
        out[i] = std::move((*chunk)[i - begin]);
      }
    });
    SM_RETURN_IF_ERROR(errors.first());
    full_.Mutable<core::SimilarityResult>() = std::move(out);
    have_full_ = true;
    return Status::OK();
  }
  // Simulated cluster: one join task per slot over a contiguous query
  // range.
  const size_t tasks = static_cast<size_t>(DefaultPartitions());
  partials_.assign(tasks, TaskResultSet{});
  SM_RETURN_IF_ERROR(
      RunPartitions(tasks, [&](int t, TaskStats* stats) -> Status {
        const size_t begin = n * static_cast<size_t>(t) / tasks;
        const size_t end = n * (static_cast<size_t>(t) + 1) / tasks;
        if (op.shuffle_table_per_task) {
          // Every join task re-reads the full table through the shuffle.
          stats->shuffle_bytes += table_bytes;
        }
        if (begin == end) return Status::OK();
        SM_ASSIGN_OR_RETURN(
            std::vector<core::SimilarityResult> chunk,
            core::ComputeSimilarityTopKRange(views, norms, begin, end,
                                             similarity.search, &ctx_));
        partials_[t].Mutable<core::SimilarityResult>() = std::move(chunk);
        return Status::OK();
      }));
  return Status::OK();
}

Status Execution::RunKernel(const PlanStage& stage, const KernelOp& op) {
  const int parts =
      have_batch_ ? 1
                  : static_cast<int>(series_.empty() ? readings_.size()
                                                     : series_.size());
  return TimedStage(stage, std::max(parts, 1), [&]() -> Status {
    obs::SpanScope task_span(TaskSpanName(op.options.task()));
    if (cluster_) {
      if (op.broadcast_bytes > 0) ChargeBroadcast(op.broadcast_bytes);
      simulated_seconds_ += op.extra_overhead_seconds;
    }
    if (have_batch_) return BatchKernel(op);
    if (!op.options.scope().whole()) {
      // The partitioned series paths re-group records by household hash
      // and lose row positions, so a row scope has no meaning there.
      return Status::NotSupported(
          "row-scoped kernels require a batch-scan plan");
    }
    if (op.options.task() == core::TaskType::kSimilarity) {
      return SimilarityOverSeries(op);
    }
    return SeriesKernel(op);
  });
}

Status Execution::RunFused(const PlanStage& scan_stage, const ScanOp& scan,
                           const PlanStage& kernel_stage,
                           const KernelOp& kernel) {
  if (scan.kind == ScanOp::Kind::kBatch) {
    return Status::Internal("batch scans cannot fuse into a kernel wave");
  }
  if (kernel.options.task() == core::TaskType::kSimilarity) {
    return Status::Internal("similarity kernels cannot fuse with a scan");
  }
  if (!kernel.options.scope().whole()) {
    return Status::NotSupported(
        "row-scoped kernels require a batch-scan plan");
  }
  // The combined wave is billed to the kernel stage (where the work
  // lands); the scan stage keeps a zero-cost row so plans stay readable.
  AddStageRow(scan_stage.name, 0.0, scan.partitions);
  shared_temperature_ = scan.shared_temperature;
  const std::vector<double>* shared_temperature = shared_temperature_.get();
  return TimedStage(kernel_stage, scan.partitions, [&]() -> Status {
    obs::SpanScope task_span(TaskSpanName(kernel.options.task()));
    if (cluster_) {
      simulated_seconds_ += scan.driver_seconds;
      if (kernel.broadcast_bytes > 0) ChargeBroadcast(kernel.broadcast_bytes);
      simulated_seconds_ += kernel.extra_overhead_seconds;
    }
    const size_t parts = static_cast<size_t>(std::max(1, scan.partitions));
    partials_.assign(parts, TaskResultSet{});
    return RunPartitions(parts, [&](int i, TaskStats* stats) -> Status {
      core::ThreeLinePhases local_phases;
      std::vector<SeriesRecord> records;
      if (scan.kind == ScanOp::Kind::kSeries) {
        if (!scan.scan_series) {
          return Status::Internal("scan has no series source");
        }
        SM_RETURN_IF_ERROR(scan.scan_series(i, &records, stats));
      } else {
        if (!scan.scan_readings) {
          return Status::Internal("scan has no readings source");
        }
        std::vector<ReadingRecord> rows;
        SM_RETURN_IF_ERROR(scan.scan_readings(i, &rows, stats));
        std::map<int64_t, std::vector<ReadingRecord>> grouped;
        for (ReadingRecord& r : rows) grouped[r.household_id].push_back(r);
        records.reserve(grouped.size());
        for (auto& [key, values] : grouped) {
          SeriesRecord record;
          record.household_id = key;
          record.raw = std::move(values);
          records.push_back(std::move(record));
        }
      }
      for (SeriesRecord& record : records) {
        SM_RETURN_IF_ERROR(ComputeSeries(ctx_, kernel.options, &record,
                                         shared_temperature, &local_phases,
                                         &partials_[i]));
      }
      std::lock_guard<std::mutex> lock(mu_);
      phases_.Accumulate(local_phases);
      return Status::OK();
    });
  });
}

Status Execution::RunMaterialize(const PlanStage& stage) {
  return TimedStage(stage, 1, [&]() -> Status {
    if (results_ == nullptr) {
      partials_.clear();
      full_.Clear();
      have_full_ = false;
      return Status::OK();
    }
    if (have_full_) {
      engines::MergeResults(std::move(full_), results_);
      full_.Clear();
      have_full_ = false;
      return Status::OK();
    }
    for (TaskResultSet& partial : partials_) {
      engines::MergeResults(std::move(partial), results_);
    }
    partials_.clear();
    return Status::OK();
  });
}

Status Execution::RunMerge(const PlanStage& stage, const MergeOp& op) {
  return TimedStage(stage, 1, [&]() -> Status {
    if (op.sort_by_household && results_ != nullptr) {
      engines::SortResultsByHousehold(results_);
    }
    return Status::OK();
  });
}

Result<PlanRunMetrics> Execution::Run() {
  Stopwatch clock;
  if (results_ != nullptr) results_->Clear();
  if (cluster_ && policy_.job_overhead_seconds > 0.0) {
    // Job submission / DAG scheduling: a synthetic stage row so the
    // per-stage timings sum to the reported task seconds.
    simulated_seconds_ += policy_.job_overhead_seconds;
    AddStageRow("driver", policy_.job_overhead_seconds, 1);
  }
  for (size_t i = 0; i < plan_.stages.size(); ++i) {
    SM_RETURN_IF_ERROR(ctx_.CheckNotStopped());
    const PlanStage& stage = plan_.stages[i];
    const ScanOp* scan = std::get_if<ScanOp>(&stage.op);
    const KernelOp* fused = nullptr;
    if (scan != nullptr && i + 1 < plan_.stages.size()) {
      const KernelOp* next = std::get_if<KernelOp>(&plan_.stages[i + 1].op);
      if (next != nullptr && next->fuse_scan) fused = next;
    }
    if (fused != nullptr) {
      SM_RETURN_IF_ERROR(RunFused(stage, *scan, plan_.stages[i + 1], *fused));
      ++i;
      continue;
    }
    if (scan != nullptr) {
      const ShuffleOp* next =
          i + 1 < plan_.stages.size()
              ? std::get_if<ShuffleOp>(&plan_.stages[i + 1].op)
              : nullptr;
      const bool sort_merge_follows =
          next != nullptr && next->strategy == ShuffleOp::Strategy::kSortMerge;
      const KernelOp* next_kernel =
          i + 1 < plan_.stages.size()
              ? std::get_if<KernelOp>(&plan_.stages[i + 1].op)
              : nullptr;
      SM_RETURN_IF_ERROR(
          RunScan(stage, *scan, sort_merge_follows, next_kernel));
      continue;
    }
    if (const ShuffleOp* shuffle = std::get_if<ShuffleOp>(&stage.op)) {
      SM_RETURN_IF_ERROR(RunShuffle(stage, *shuffle));
      continue;
    }
    if (const KernelOp* kernel = std::get_if<KernelOp>(&stage.op)) {
      SM_RETURN_IF_ERROR(RunKernel(stage, *kernel));
      continue;
    }
    if (std::get_if<MaterializeOp>(&stage.op) != nullptr) {
      SM_RETURN_IF_ERROR(RunMaterialize(stage));
      continue;
    }
    if (const MergeOp* merge = std::get_if<MergeOp>(&stage.op)) {
      SM_RETURN_IF_ERROR(RunMerge(stage, *merge));
      continue;
    }
    return Status::Internal("unknown plan operator");
  }
  PlanRunMetrics metrics;
  metrics.simulated = cluster_;
  metrics.seconds = cluster_ ? simulated_seconds_ : clock.ElapsedSeconds();
  metrics.phases = phases_;
  metrics.stages = std::move(stage_rows_);
  metrics.faults = fault_stats_;
  metrics.scan = scan_stats_;
  if (fault_stats_.any()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("cluster.task.retries")->Add(fault_stats_.retries);
    registry.GetCounter("cluster.task.stragglers")
        ->Add(fault_stats_.stragglers);
    registry.GetCounter("cluster.task.speculative_launched")
        ->Add(fault_stats_.speculative_launched);
    registry.GetCounter("cluster.task.speculative_wins")
        ->Add(fault_stats_.speculative_wins);
  }
  switch (policy_.memory_model) {
    case ExecutionPolicy::MemoryModel::kNone:
      break;
    case ExecutionPolicy::MemoryModel::kPeakTaskTimesSlots:
      metrics.modeled_memory_bytes =
          peak_task_bytes_ * policy_.cluster.slots_per_node;
      break;
    case ExecutionPolicy::MemoryModel::kResidentPlusTaskBuffers:
      metrics.modeled_memory_bytes =
          cached_bytes_ / std::max(1, policy_.cluster.num_nodes) +
          static_cast<int64_t>(policy_.cluster.slots_per_node) * 3 *
              policy_.block_bytes;
      break;
  }
  return metrics;
}

}  // namespace

std::string ExecutionPolicy::DebugString() const {
  if (dispatch == Dispatch::kLocalPool) {
    return "local-pool threads=" + std::to_string(threads);
  }
  std::string out = "simulated-cluster nodes=" +
                    std::to_string(cluster.num_nodes) +
                    " slots/node=" + std::to_string(cluster.slots_per_node);
  switch (memory_model) {
    case MemoryModel::kNone:
      break;
    case MemoryModel::kPeakTaskTimesSlots:
      out += " memory=peak-task-x-slots";
      break;
    case MemoryModel::kResidentPlusTaskBuffers:
      out += " memory=resident+task-buffers";
      break;
  }
  return out;
}

Result<PlanRunMetrics> PlanExecutor::Run(const QueryContext& ctx,
                                         const Plan& plan,
                                         const ExecutionPolicy& policy,
                                         engines::TaskResultSet* results) {
  SM_TRACE_SPAN("plan.execute");
  Execution execution(ctx, plan, policy, results);
  return execution.Run();
}

Result<PlanRunMetrics> PlanExecutor::RunGather(
    const QueryContext& ctx, std::vector<engines::TaskResultSet> partials,
    bool sort_by_household, engines::TaskResultSet* results) {
  SM_TRACE_SPAN("plan.gather");
  Plan plan;
  plan.label = "gather";
  plan.stages.push_back({"materialize", MaterializeOp{}});
  MergeOp merge;
  merge.sort_by_household = sort_by_household;
  plan.stages.push_back({"merge", merge});
  const ExecutionPolicy policy;  // Local, serial: gather is merge-bound.
  Execution execution(ctx, plan, policy, results);
  execution.SeedPartials(std::move(partials));
  return execution.Run();
}

}  // namespace smartmeter::exec
