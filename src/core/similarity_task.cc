#include "core/similarity_task.h"

#include <algorithm>
#include <numeric>

#include "simd/simd.h"
#include "stats/distance.h"
#include "stats/sax.h"
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

Result<std::vector<SimilarityResult>> ComputeSimilarityTopKApprox(
    std::span<const SeriesView> series,
    const ApproxSimilarityOptions& options,
    const exec::QueryContext* ctx) {
  const size_t n = series.size();
  if (n < 2) {
    return Status::InvalidArgument("similarity: need at least two series");
  }
  if (options.base.k < 1 || options.candidate_factor < 1) {
    return Status::InvalidArgument("similarity: bad k or candidate factor");
  }
  const size_t length = series[0].values.size();
  for (const SeriesView& s : series) {
    if (s.values.size() != length) {
      return Status::InvalidArgument("similarity: series length mismatch");
    }
  }

  // Precompute SAX words and exact norms once.
  std::vector<stats::SaxWord> words;
  words.reserve(n);
  for (const SeriesView& s : series) {
    SM_ASSIGN_OR_RETURN(
        stats::SaxWord word,
        stats::ComputeSaxWord(s.values, options.sax_segments,
                              options.sax_alphabet));
    words.push_back(std::move(word));
  }
  const std::vector<double> norms = ComputeNorms(series);

  const size_t candidates = std::min(
      n - 1, static_cast<size_t>(options.base.k) *
                 static_cast<size_t>(options.candidate_factor));
  std::vector<SimilarityResult> results;
  results.reserve(n);
  std::vector<std::pair<double, size_t>> ranked(n - 1);
  for (size_t q = 0; q < n; ++q) {
    if (ctx != nullptr && ctx->ShouldStop()) return ctx->CheckNotStopped();
    // Filter: rank all others by the cheap SAX lower bound.
    size_t slot = 0;
    for (size_t o = 0; o < n; ++o) {
      if (o == q) continue;
      SM_ASSIGN_OR_RETURN(double mindist,
                          stats::SaxMinDist(words[q], words[o], length));
      ranked[slot++] = {mindist, o};
    }
    std::nth_element(ranked.begin(),
                     ranked.begin() + static_cast<ptrdiff_t>(candidates - 1),
                     ranked.end());
    // Refine: exact cosine on the shortlisted candidates only.
    stats::TopK<int64_t> top(static_cast<size_t>(options.base.k));
    for (size_t c = 0; c < candidates; ++c) {
      const size_t o = ranked[c].second;
      const double cosine = stats::CosineSimilarityPrenormed(
          series[q].values, norms[q], series[o].values, norms[o]);
      top.Offer(cosine, series[o].household_id);
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
  return results;
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
