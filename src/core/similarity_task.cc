#include "core/similarity_task.h"

#include <algorithm>

#include "simd/simd.h"
#include "stats/distance.h"
#include "stats/topk.h"

namespace smartmeter::core {

namespace {

// Query rows per DotBlock call: each candidate row is read once per
// block, and `ctx` is polled once per block.
constexpr size_t kQueryBlock = 8;

}  // namespace

std::vector<double> ComputeNorms(std::span<const SeriesView> series) {
  std::vector<double> norms;
  norms.reserve(series.size());
  for (const SeriesView& s : series) norms.push_back(stats::Norm(s.values));
  return norms;
}

Result<std::vector<SimilarityResult>> ComputeSimilarityTopKRange(
    std::span<const SeriesView> series, std::span<const double> norms,
    size_t query_begin, size_t query_end, const SimilarityOptions& options,
    const exec::QueryContext* ctx) {
  if (series.size() < 2) {
    return Status::InvalidArgument("similarity: need at least two series");
  }
  if (norms.size() != series.size()) {
    return Status::InvalidArgument("similarity: norms size mismatch");
  }
  if (query_end > series.size() || query_begin > query_end) {
    return Status::InvalidArgument("similarity: bad query range");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("similarity: k must be >= 1");
  }
  const size_t length = series[0].values.size();
  for (const SeriesView& s : series) {
    if (s.values.size() != length) {
      return Status::InvalidArgument("similarity: series length mismatch");
    }
  }

  const size_t n = series.size();
  std::vector<const double*> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = series[i].values.data();
  std::vector<double> dots(std::min(kQueryBlock, query_end - query_begin) *
                           n);
  std::vector<SimilarityResult> results;
  results.reserve(query_end - query_begin);
  for (size_t block = query_begin; block < query_end; block += kQueryBlock) {
    if (ctx != nullptr && ctx->ShouldStop()) return ctx->CheckNotStopped();
    const size_t m = std::min(kQueryBlock, query_end - block);
    simd::DotBlock(std::span(rows).subspan(block, m), rows, length,
                   std::span(dots).first(m * n));
    for (size_t q = block; q < block + m; ++q) {
      const double* q_dots = dots.data() + (q - block) * n;
      stats::TopK<int64_t> top(static_cast<size_t>(options.k));
      for (size_t o = 0; o < n; ++o) {
        if (o == q) continue;
        top.Offer(stats::CosineFromDot(q_dots[o], norms[q], norms[o]),
                  series[o].household_id);
      }
      SimilarityResult result;
      result.household_id = series[q].household_id;
      const auto sorted = top.Sorted();
      result.matches.reserve(sorted.size());
      for (const auto& entry : sorted) {
        result.matches.push_back({entry.id, entry.score});
      }
      results.push_back(std::move(result));
    }
  }
  return results;
}

Result<std::vector<SimilarityResult>> ComputeSimilarityTopK(
    std::span<const SeriesView> series, const SimilarityOptions& options,
    const exec::QueryContext* ctx) {
  const std::vector<double> norms = ComputeNorms(series);
  return ComputeSimilarityTopKRange(series, norms, 0, series.size(), options,
                                    ctx);
}

std::vector<SeriesView> BuildSeriesViews(const table::ColumnarBatch& batch,
                                         size_t limit) {
  size_t n = batch.count();
  if (limit > 0) n = std::min(n, limit);
  std::vector<SeriesView> views;
  views.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    views.push_back({batch.household_id(i), batch.consumption(i)});
  }
  return views;
}

}  // namespace smartmeter::core
