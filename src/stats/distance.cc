#include "stats/distance.h"

#include <cmath>

#include "common/logging.h"
#include "simd/simd.h"

namespace smartmeter::stats {

double Dot(std::span<const double> x, std::span<const double> y) {
  SM_CHECK(x.size() == y.size()) << "Dot: size mismatch";
  // The SIMD layer keeps the historical 4-lane striped accumulation
  // order, so the vector path is bit-identical to what this function
  // computed before; this is the hot loop of similarity search.
  return simd::Dot(x, y);
}

double Norm(std::span<const double> x) { return std::sqrt(Dot(x, x)); }

double CosineSimilarity(std::span<const double> x,
                        std::span<const double> y) {
  return CosineSimilarityPrenormed(x, Norm(x), y, Norm(y));
}

double CosineSimilarityPrenormed(std::span<const double> x, double norm_x,
                                 std::span<const double> y, double norm_y) {
  return CosineFromDot(Dot(x, y), norm_x, norm_y);
}

double SquaredEuclidean(std::span<const double> x,
                        std::span<const double> y) {
  SM_CHECK(x.size() == y.size()) << "SquaredEuclidean: size mismatch";
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace smartmeter::stats
