// smbench: the repository benchmark. Runs one seeded workload against the
// library's public API, checks every answer, and prints its metrics by
// name and unit followed by one JSON result line.
//
//   smbench --workload batch|serve|ingest --seed N --seconds S --trace 0|1
//           --workdir DIR [--trace-file PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 splits the window
// into an untraced and a traced half and reports the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "common/string_util.h"
#include "simd/simd.h"
#include "table/columnar_cache.h"

#ifndef SMBENCH_BUILD_TYPE
#define SMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "smbench: %s\nusage: smbench --workload batch|serve|ingest "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-file PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using smartmeter::StringPrintf;
  smbench::Args args;
  std::string trace_flag;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace_flag = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-file") {
      args.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (trace_flag != "0" && trace_flag != "1") return Usage("--trace 0|1");
  args.trace = trace_flag == "1";
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.workdir.empty()) return Usage("--workdir is required");
  if (args.workload != "batch" && args.workload != "serve" &&
      args.workload != "ingest") {
    return Usage("unknown workload");
  }
  // Every number must measure the program's defaults.
  for (const char* var : {"SM_SIMD", "SM_COLUMN_FORMAT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "smbench: refusing to run with %s set; unset it so the "
                   "benchmark measures the program's defaults\n",
                   var);
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) return Usage(("cannot create workdir: " + ec.message()).c_str());

  std::printf(
      "smbench workload=%s seed=%llu seconds=%g trace=%d\n"
      "  config: simd=%s spool_format=%s nproc=%u build=%s households=%d "
      "hours=%d setups=%d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0,
      std::string(smartmeter::simd::LevelName(
                      smartmeter::simd::ActiveLevel()))
          .c_str(),
      smartmeter::table::ColumnarCache::Options::DefaultFormat() ==
              smartmeter::table::ColumnarCache::Format::kV1
          ? "smcolv1"
          : "smcolv2",
      std::thread::hardware_concurrency(), SMBENCH_BUILD_TYPE,
      smbench::kHouseholds, smbench::kHours, smbench::kSetups);

  smbench::RunContext run(args);
  int code = 0;
  if (args.workload == "batch") {
    code = smbench::RunBatch(run);
  } else if (args.workload == "serve") {
    code = smbench::RunServe(run);
  } else {
    code = smbench::RunIngest(run);
  }
  std::filesystem::remove_all(args.workdir, ec);
  if (code != 0) return code;

  if (args.trace) {
    for (const auto& [layer, seconds] : run.spans().SelfSecondsByLayer()) {
      run.Info("self_s." + layer, seconds, "s",
               "span self time of this layer in the traced run");
    }
    if (!args.trace_path.empty()) {
      if (run.spans().WriteJsonLines(args.trace_path)) {
        run.Note(StringPrintf("  trace: %zu spans written to %s",
                              run.spans().spans().size(),
                              args.trace_path.c_str()));
      } else {
        run.Violation("trace output",
                      "cannot write spans to " + args.trace_path);
      }
    }
  }
  return run.Finish();
}
