// Reproduces Figure 7(a-d): cold-start single-threaded running time of
// each algorithm (3-line, PAR, histogram, similarity) on Matlab, MADLib
// and System C for growing data sizes.
//
// Methodology matches Section 5.3.3: data is already loaded into each
// platform's storage (that cost is Figure 4); every task then runs cold,
// i.e. nothing is pre-extracted into memory.
//
// Expected shape (paper): System C clearly fastest everywhere; Matlab
// runner-up except histogram (where MADLib does fine); MADLib worst for
// 3-line, PAR and similarity; similarity is the most expensive task.
// With --report=, each cell is also one run row (threads 1, cold,
// task_seconds = the cell, households = the size point).
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "engines/engine_factory.h"
#include "obs/report.h"
#include "table/data_source.h"

namespace {

using namespace smartmeter;         // NOLINT
using namespace smartmeter::bench;  // NOLINT

constexpr engines::EngineKind kEngines[] = {engines::EngineKind::kMatlab,
                                            engines::EngineKind::kMadlib,
                                            engines::EngineKind::kSystemC};

int Run(BenchContext& ctx) {
  PrintHeader(
      "Figure 7: single-threaded cold-start execution times",
      StringPrintf("scale %.0f; paper sweeps 2-10 GB (5,460-27,300 "
                   "households); similarity capped like the paper's 4 GB "
                   "points",
                   ctx.scale_divisor()));

  const std::vector<double> sizes = {2.0, 4.0, 6.0, 8.0, 10.0};
  // results[task][paper_gb][engine] = seconds.
  std::map<core::TaskType, std::map<double, std::map<int, double>>> results;

  for (double paper_gb : sizes) {
    const int households = ctx.HouseholdsForPaperGb(paper_gb);
    for (int e = 0; e < 3; ++e) {
      engines::EngineFactoryOptions factory;
      factory.spool_dir = ctx.SpoolDir("fig07");
      auto engine = engines::MakeEngine(kEngines[e], factory);
      engine->SetThreads(1);
      auto source = (kEngines[e] == engines::EngineKind::kMatlab)
                        ? ctx.PartitionedDir(households)
                        : ctx.SingleCsv(households);
      if (!source.ok()) return 1;
      if (!engine->Attach(*source).ok()) return 1;
      for (core::TaskType task : core::kAllTasks) {
        if (task == core::TaskType::kSimilarity && paper_gb > 4.0) {
          continue;  // Prohibitive for Matlab/MADLib in the paper too.
        }
        engines::TaskOptions request = engines::TaskOptions::Default(task);
        auto metrics = engine->RunTask(request, nullptr);
        if (!metrics.ok()) {
          std::fprintf(stderr, "%s\n",
                       metrics.status().ToString().c_str());
          return 1;
        }
        results[task][paper_gb][e] = metrics->seconds;
        obs::RunRecord rec;
        rec.engine = std::string(engines::EngineKindName(kEngines[e]));
        rec.task = std::string(core::TaskName(task));
        rec.layout = std::string(table::DataSourceLayoutName(source->layout));
        rec.threads = 1;
        rec.task_seconds = metrics->seconds;
        rec.households = households;
        ctx.report().AddRun(rec);
      }
    }
  }

  for (core::TaskType task : core::kAllTasks) {
    std::printf("\n-- Figure 7 (%s) --\n",
                std::string(core::TaskName(task)).c_str());
    PrintRow({"paper GB", "households", "matlab (s)", "madlib (s)",
              "system-c (s)"});
    PrintDivider(5);
    for (const auto& [paper_gb, row] : results[task]) {
      PrintRow({Cell(paper_gb),
                CellInt(ctx.HouseholdsForPaperGb(paper_gb)),
                Cell(row.at(0)), Cell(row.at(1)), Cell(row.at(2))});
    }
  }
  std::printf(
      "\nShape to check: system-c column smallest everywhere; madlib worst "
      "for 3line/par/similarity;\nsimilarity rows cost the most overall.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/80.0);
  return Run(ctx);
}
