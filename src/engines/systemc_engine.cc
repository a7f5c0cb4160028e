#include "engines/systemc_engine.h"

#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "core/task_types.h"
#include "engines/engine_util.h"
#include "engines/plan_builders.h"
#include "obs/trace.h"

namespace smartmeter::engines {

SystemCEngine::SystemCEngine(std::string spool_dir)
    : cache_(std::move(spool_dir)) {}

Result<double> SystemCEngine::Attach(const table::DataSource& source) {
  SM_TRACE_SPAN("systemc.attach");
  SM_RETURN_IF_ERROR(RequireLayout(source,
                                   {table::DataSource::Layout::kSingleCsv,
                                    table::DataSource::Layout::kPartitionedDir,
                                    table::DataSource::Layout::kColumnFile},
                                   name()));
  Stopwatch clock;
  prefaulted_ = false;
  batch_ = table::ColumnarBatch();
  if (source.layout == table::DataSource::Layout::kColumnFile) {
    // Already in the native format (either generation): open it
    // directly, no spooling.
    auto reader =
        std::make_unique<table::ColumnFileReader>(source.files.front());
    SM_RETURN_IF_ERROR(reader->Open());
    reader_ = std::move(reader);
  } else {
    // Ingest through the columnar cache: a first attach parses the CSVs
    // once and spools the binary columnar image; any later attach of the
    // unchanged source is an mmap. Either way the map itself is
    // near-free, which is System C's Figure 4 advantage.
    SM_ASSIGN_OR_RETURN(reader_, cache_.OpenOrBuild(source));
  }
  SM_ASSIGN_OR_RETURN(batch_, reader_->NewBatch());
  return clock.ElapsedSeconds();
}

Result<double> SystemCEngine::WarmUp() {
  SM_TRACE_SPAN("systemc.warmup");
  if (batch_.empty()) {
    return Status::InvalidArgument("system-c: no data attached");
  }
  Stopwatch clock;
  // Touch every page of the mapping so a warm run never faults.
  double sink = 0.0;
  for (double v : batch_.consumption_column()) sink += v;
  for (double v : batch_.temperature()) sink += v;
  // Defeat dead-code elimination of the touch loop.
  asm volatile("" : : "g"(sink) : "memory");
  prefaulted_ = true;
  return clock.ElapsedSeconds();
}

void SystemCEngine::DropWarmData() { prefaulted_ = false; }

Result<exec::Plan> SystemCEngine::BuildPlan(const TaskOptions& options) const {
  if (batch_.empty()) {
    return Status::InvalidArgument("system-c: no data attached");
  }
  exec::Plan plan;
  plan.label =
      "system-c/" + std::string(core::TaskName(options.task())) + "/resident";
  // Reader-backed scan: same resident batch for whole-table plans, but
  // scoped requests go back through the reader, which slices its
  // resident data and reports the scope's block-index coverage.
  plan.stages.push_back(
      {"scan",
       planning::ReaderBatchScan(reader_.get(), &batch_, "columnar-mmap")});
  exec::KernelOp kernel;
  kernel.options = options;
  plan.stages.push_back({"kernel", std::move(kernel)});
  plan.stages.push_back({"materialize", exec::MaterializeOp{}});
  return plan;
}

Result<TaskRunMetrics> SystemCEngine::RunTask(const exec::QueryContext& ctx,
                                              const TaskOptions& options,
                                              TaskResultSet* results) {
  SM_TRACE_SPAN("systemc.task");
  SM_ASSIGN_OR_RETURN(exec::Plan plan, BuildPlan(options));
  SM_ASSIGN_OR_RETURN(
      exec::PlanRunMetrics run,
      exec::PlanExecutor().Run(ctx, plan, LocalPoolPolicy(threads_), results));
  return ToTaskMetrics(std::move(run));
}

}  // namespace smartmeter::engines
