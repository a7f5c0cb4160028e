#ifndef SMARTMETER_STATS_DISTANCE_H_
#define SMARTMETER_STATS_DISTANCE_H_

#include <span>

namespace smartmeter::stats {

/// Dot product of two equal-length spans.
double Dot(std::span<const double> x, std::span<const double> y);

/// Euclidean (L2) norm.
double Norm(std::span<const double> x);

/// Cosine similarity X.Y / (||X|| * ||Y||), the similarity metric of the
/// benchmark's fourth task (Section 3.4). Returns 0 when either vector has
/// zero norm.
double CosineSimilarity(std::span<const double> x, std::span<const double> y);

/// Cosine similarity when the norms are already known (the similarity
/// engines precompute norms once per series to cut the quadratic pass to a
/// dot product per pair).
double CosineSimilarityPrenormed(std::span<const double> x, double norm_x,
                                 std::span<const double> y, double norm_y);

/// The cosine of two series from their dot product and norms:
/// dot / (norm_x * norm_y), or 0 when either norm is zero. The one
/// formula behind CosineSimilarityPrenormed and the blocked similarity
/// kernel, which computes the dot products in tiles first.
inline double CosineFromDot(double dot, double norm_x, double norm_y) {
  if (norm_x == 0.0 || norm_y == 0.0) return 0.0;
  return dot / (norm_x * norm_y);
}

/// Squared Euclidean distance (used by k-means).
double SquaredEuclidean(std::span<const double> x, std::span<const double> y);

}  // namespace smartmeter::stats

#endif  // SMARTMETER_STATS_DISTANCE_H_
