// Shared pieces of the three workloads: the run context (arguments,
// metrics, failure accounting, tracing), the seeded dataset every
// workload uses, the reference computations the results are checked
// against, and bit-exact result comparison.
#ifndef SMBENCH_COMMON_H_
#define SMBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/task_types.h"
#include "engines/task_api.h"
#include "harness.h"
#include "timeseries/dataset.h"

namespace smbench {

namespace core = smartmeter::core;
namespace engines = smartmeter::engines;
using smartmeter::MeterDataset;
using smartmeter::Result;

/// The dataset every workload uses: 400 households x 8760 hours
/// (~3.5 M readings, ~75 MB as one CSV).
inline constexpr int kHouseholds = 400;
inline constexpr int kHours = 8760;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;
/// Query statistics come from the calmest sub-window of the run (see
/// CalmestWindow): the run is cut into as many sub-windows as keep at
/// least kSamplesPerSubWindow samples each (so each still supports p99),
/// at most one per kMinSubWindowSeconds.
inline constexpr size_t kSamplesPerSubWindow = 1000;
inline constexpr double kMinSubWindowSeconds = 1.0;

struct QueryWindow {
  WindowStats calm;
  size_t windows = 0;
  size_t samples = 0;
};
QueryWindow CalmestQueryWindow(const std::vector<TimedSample>& samples,
                               double span);
std::string FormatWindow(const QueryWindow& window, const std::string& unit);

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory of this run (inside the checkout).
  std::string workdir;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

/// Everything one run accumulates: metrics by kind, operation counts,
/// broken invariants, spans, and the human-readable lines printed before
/// the result line.
class RunContext {
 public:
  explicit RunContext(Args args);

  const Args& args() const { return args_; }
  SpanRecorder& spans() { return spans_; }

  /// End-to-end metric (reported when --trace 0).
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");
  /// Per-layer metric (reported when --trace 1).
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  /// A workload-specific quantity printed for reading only.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void Note(const std::string& line);

  /// Counts user operations of one kind ("load", "task", "query",
  /// "reading"): attempted, and how many of them failed.
  void CountOps(const std::string& kind, int64_t attempted, int64_t failed);

  /// Records a broken correctness invariant: `check` names it, `detail`
  /// says by how much.
  void Violation(const std::string& check, const std::string& detail);
  bool correct() const { return violations_.empty(); }

  /// Prints the collected lines and the result line; returns the exit
  /// code (non-zero when a check failed).
  int Finish();

 private:
  Args args_;
  SpanRecorder spans_;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layers_;
  std::vector<std::string> lines_;
  std::vector<std::string> violations_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, std::pair<int64_t, int64_t>> ops_by_kind_;
};

/// Generates the seeded dataset (archetype seed set, then the paper's
/// Section 4 generator), quantized to the CSV writer's precision so the
/// in-memory copy and a parse of the written CSV are bit-identical.
Result<MeterDataset> GenerateDataset(uint64_t seed);

/// Current value of a counter the library exports.
int64_t CounterValue(const char* name);

/// Per-household results of the four paper tasks computed directly with
/// the core kernels over an in-memory dataset (the benchmark's own
/// reference, independent of engines, plans and storage).
struct Reference {
  std::vector<core::HistogramResult> histogram;
  std::vector<core::ThreeLineResult> three_line;
  std::vector<core::DailyProfileResult> par;
  std::vector<core::SimilarityResult> similarity;
};
/// Computes the reference for `tasks` on `threads` worker threads (each
/// household's result is independent of how households are split).
Result<Reference> ComputeReference(const MeterDataset& dataset,
                                   const std::vector<core::TaskType>& tasks,
                                   int threads);

/// Empty when `actual` holds exactly `expected` (bit-for-bit); otherwise
/// the first difference with its size.
std::string CompareResults(const engines::TaskResultSet& actual,
                           const Reference& expected, core::TaskType task);
/// The same for one household's row: `actual` must hold exactly one
/// result, equal to row `row` of the reference.
std::string CompareRow(const engines::TaskResultSet& actual,
                       const Reference& expected, core::TaskType task,
                       size_t row);

/// Every per-layer metric with its unit. A traced run reports all of
/// them; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// Fresh, empty directory under the run's workdir.
std::string FreshDir(const RunContext& run, const std::string& name);

/// Formats seconds for the notes ("1.234 s").
std::string FormatSummary(const Summary& summary, const std::string& unit);

int RunBatch(RunContext& run);
int RunServe(RunContext& run);
int RunIngest(RunContext& run);

}  // namespace smbench

#endif  // SMBENCH_COMMON_H_
