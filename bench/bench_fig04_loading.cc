// Reproduces Figure 4: time to load the real data set into Matlab,
// MADLib/PostgreSQL and System C, with partitioned (one file per
// consumer) and un-partitioned (one big file) inputs.
//
// Expected shape (paper): MADLib slowest by far (per-tuple inserts +
// index maintenance), bulk-loading one big CSV faster than many small
// files; System C fast and insensitive to file count; Matlab performs no
// load at all -- its single bar is the cost of splitting the big file
// into per-consumer files. With --report=, each bar is also one run row
// (task "load", attach_seconds = the bar).
#include <cstdio>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engines/engine_factory.h"
#include "obs/report.h"
#include "storage/csv.h"
#include "table/data_source.h"

namespace {

using namespace smartmeter;        // NOLINT
using namespace smartmeter::bench;  // NOLINT

/// One report row per (platform, layout) bar of the figure.
void AddLoadRun(BenchContext& ctx, std::string_view engine,
                std::string_view layout, double seconds) {
  obs::RunRecord rec;
  rec.engine = std::string(engine);
  rec.task = "load";
  rec.layout = std::string(layout);
  rec.attach_seconds = seconds;
  ctx.report().AddRun(rec);
}

int Run(BenchContext& ctx) {
  const double paper_gb = ctx.flags().GetDouble("paper-gb", 5.0);
  const int households = ctx.HouseholdsForPaperGb(paper_gb);
  PrintHeader(
      "Figure 4: data loading times, partitioned vs un-partitioned",
      StringPrintf("%d households (~%.1f paper-GB at scale %.0f); paper "
                   "used 10 GB / 27,300 households",
                   households, ctx.PaperGbForHouseholds(households),
                   ctx.scale_divisor()));

  auto single = ctx.SingleCsv(households);
  auto part = ctx.PartitionedDir(households);
  if (!single.ok() || !part.ok()) {
    std::fprintf(stderr, "data materialization failed\n");
    return 1;
  }

  PrintRow({"platform", "partitioned (s)", "un-partitioned (s)"});
  PrintDivider(3);

  // Matlab: no load; its bar is the file-split time. Measure a fresh
  // split into a throwaway directory.
  {
    auto ds = ctx.GetDataset(households);
    if (!ds.ok()) return 1;
    Stopwatch split_clock;
    auto split = storage::WritePartitionedCsv(
        **ds, ctx.workdir() + "/fig04_split_scratch");
    if (!split.ok()) return 1;
    const double split_seconds = split_clock.ElapsedSeconds();
    PrintRow({"matlab (file split only)", Cell(split_seconds), "n/a"});
    AddLoadRun(ctx, "matlab", table::DataSourceLayoutName(part->layout),
               split_seconds);
  }

  for (engines::EngineKind kind :
       {engines::EngineKind::kMadlib, engines::EngineKind::kSystemC}) {
    engines::EngineFactoryOptions factory;
    factory.spool_dir = ctx.SpoolDir("fig04");
    double part_seconds = 0.0, single_seconds = 0.0;
    {
      auto engine = engines::MakeEngine(kind, factory);
      auto attach = engine->Attach(*part);
      if (!attach.ok()) {
        std::fprintf(stderr, "%s\n", attach.status().ToString().c_str());
        return 1;
      }
      part_seconds = *attach;
    }
    {
      auto engine = engines::MakeEngine(kind, factory);
      auto attach = engine->Attach(*single);
      if (!attach.ok()) {
        std::fprintf(stderr, "%s\n", attach.status().ToString().c_str());
        return 1;
      }
      single_seconds = *attach;
    }
    PrintRow({std::string(engines::EngineKindName(kind)),
              Cell(part_seconds), Cell(single_seconds)});
    AddLoadRun(ctx, engines::EngineKindName(kind),
               table::DataSourceLayoutName(part->layout), part_seconds);
    AddLoadRun(ctx, engines::EngineKindName(kind),
               table::DataSourceLayoutName(single->layout), single_seconds);
  }
  std::printf(
      "\nShape to check against the paper: MADLib slowest (and slower on "
      "many small files),\nSystem C fast either way, Matlab pays only the "
      "split.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/80.0);
  return Run(ctx);
}
