// Ablation (ours, following the paper's reference [27] on symbolic
// smart-meter representations): SAX-accelerated approximate similarity
// search versus the exact quadratic scan. The filter ranks pairs by the
// SAX MINDIST lower bound (a few dozen operations per pair instead of a
// dot product over 8,760 points), then refines only the best candidates
// exactly. Reports speedup and top-k recall per configuration.
#include <cstdio>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/similarity_task.h"

namespace {

using namespace smartmeter;         // NOLINT
using namespace smartmeter::bench;  // NOLINT

double Recall(const std::vector<core::SimilarityResult>& truth,
              const std::vector<core::SimilarityResult>& got) {
  int hits = 0, total = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    for (const auto& t : truth[q].matches) {
      ++total;
      for (const auto& g : got[q].matches) {
        if (g.household_id == t.household_id) {
          ++hits;
          break;
        }
      }
    }
  }
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

int Run(BenchContext& ctx) {
  const int households =
      static_cast<int>(ctx.flags().GetInt("households", 300));
  PrintHeader(
      "Ablation: SAX-approximate vs exact similarity search",
      StringPrintf("%d households, full-year series, k = 10",
                   households));

  auto dataset = ctx.GetDataset(households);
  if (!dataset.ok()) return 1;
  std::vector<core::SeriesView> views;
  for (const auto& c : (*dataset)->consumers()) {
    views.push_back({c.household_id, c.consumption});
  }

  Stopwatch exact_clock;
  auto exact = core::ComputeSimilarityTopK(views);
  if (!exact.ok()) return 1;
  const double exact_seconds = exact_clock.ElapsedSeconds();

  PrintRow({"configuration", "time (s)", "speedup", "recall@10"});
  PrintDivider(4);
  PrintRow({"exact (all pairs)", Cell(exact_seconds), "1.000", "1.000"});

  struct Config {
    int segments;
    int alphabet;
    int factor;
  };
  for (const Config& config : {Config{16, 8, 4}, Config{32, 8, 4},
                               Config{32, 8, 8}, Config{64, 16, 8}}) {
    core::ApproxSimilarityOptions options;
    options.sax_segments = config.segments;
    options.sax_alphabet = config.alphabet;
    options.candidate_factor = config.factor;
    Stopwatch clock;
    auto approx = core::ComputeSimilarityTopKApprox(views, options);
    if (!approx.ok()) return 1;
    const double seconds = clock.ElapsedSeconds();
    PrintRow({StringPrintf("sax w=%d a=%d cand=%dk", config.segments,
                           config.alphabet, config.factor),
              Cell(seconds),
              Cell(seconds > 0 ? exact_seconds / seconds : 0.0),
              Cell(Recall(*exact, *approx))});
  }
  std::printf(
      "\nExpected: recall rises with word length and candidate budget, "
      "but against the tiled exact\nkernel the filter no longer pays at "
      "this size: measured at 300 households, SAX ran at\n0.96-1.35x of "
      "exact at recall <= 0.68 and 0.52-0.77x (slower than exact) at "
      "recall >= 0.96.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx(argc, argv, /*default_scale=*/80.0);
  return Run(ctx);
}
