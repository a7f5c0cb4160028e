#ifndef SMARTMETER_CORE_SIMILARITY_TASK_H_
#define SMARTMETER_CORE_SIMILARITY_TASK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/task_types.h"
#include "exec/query_context.h"
#include "table/columnar_batch.h"

namespace smartmeter::core {

/// Options for similarity search; the paper fixes k = 10 (Section 3.4).
struct SimilarityOptions {
  int k = 10;
};

/// A borrowed view of one consumer's series for the similarity kernel.
struct SeriesView {
  int64_t household_id;
  std::span<const double> values;
};

/// For every input series, finds the k most similar other series by
/// cosine similarity (Section 3.4). Exact all-pairs computation with
/// precomputed norms: O(n^2 * length) time, O(n * k) output. Result order
/// follows the input; matches are sorted best-first with ties broken by
/// household id. Fails if fewer than two series are given or lengths
/// mismatch. This quadratic scan is the benchmark's longest. Dot
/// products run in blocks of 8 query rows against every candidate
/// (simd::DotBlock, bitwise the per-pair Dot), and `ctx` is polled once
/// per query block, so cancellation lands within one block's work.
Result<std::vector<SimilarityResult>> ComputeSimilarityTopK(
    std::span<const SeriesView> series, const SimilarityOptions& options = {},
    const exec::QueryContext* ctx = nullptr);

/// The same kernel restricted to queries [query_begin, query_end) against
/// the full series set — the unit of work each thread / cluster task runs
/// when the quadratic loop is parallelized (Section 5.3.4). Norms for all
/// series are supplied by the caller so they are computed once.
Result<std::vector<SimilarityResult>> ComputeSimilarityTopKRange(
    std::span<const SeriesView> series, std::span<const double> norms,
    size_t query_begin, size_t query_end, const SimilarityOptions& options,
    const exec::QueryContext* ctx = nullptr);

/// Precomputes the L2 norm of every series.
std::vector<double> ComputeNorms(std::span<const SeriesView> series);

/// Views the first `limit` households of a columnar batch as similarity
/// inputs (0 = all). The views borrow the batch's memory; one shared
/// helper so every engine builds the self-join input the same way.
std::vector<SeriesView> BuildSeriesViews(const table::ColumnarBatch& batch,
                                         size_t limit = 0);

}  // namespace smartmeter::core

#endif  // SMARTMETER_CORE_SIMILARITY_TASK_H_
