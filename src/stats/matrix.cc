#include "stats/matrix.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace smartmeter::stats {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::Gram() const {
  Matrix g(cols_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    for (size_t i = 0; i < cols_; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      double* out = &g.data_[i * cols_];
      for (size_t j = i; j < cols_; ++j) {
        out[j] += ri * row[j];
      }
    }
  }
  // Mirror the upper triangle.
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = 0; j < i; ++j) {
      g.At(i, j) = g.At(j, i);
    }
  }
  return g;
}

std::vector<double> Matrix::TransposeTimes(const std::vector<double>& v) const {
  SM_CHECK(v.size() == rows_) << "TransposeTimes: vector size mismatch";
  std::vector<double> out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double vr = v[r];
    for (size_t c = 0; c < cols_; ++c) {
      out[c] += row[c] * vr;
    }
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  SM_CHECK(cols_ == other.rows_) << "Multiply: inner dimensions must match";
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double aik = At(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out.At(i, j) += aik * other.At(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      out.At(j, i) = At(i, j);
    }
  }
  return out;
}

Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b) {
  const size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("CholeskySolve: shape mismatch");
  }
  // Factor A = L L^T in place of a copy.
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (size_t k = 0; k < j; ++k) {
        sum -= l.At(i, k) * l.At(j, k);
      }
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::Internal(StringPrintf(
              "CholeskySolve: matrix not positive definite (pivot %zu = %g)",
              i, sum));
        }
        l.At(i, i) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  // Forward solve L z = b.
  std::vector<double> z(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l.At(i, k) * z[k];
    z[i] = sum / l.At(i, i);
  }
  // Back solve L^T x = z.
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = z[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l.At(k, i) * x[k];
    x[i] = sum / l.At(i, i);
  }
  return x;
}

Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double ridge) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("LeastSquares: row count mismatch");
  }
  if (x.rows() < x.cols()) {
    return Status::InvalidArgument(
        "LeastSquares: fewer observations than coefficients");
  }
  const Matrix gram = x.Gram();
  const std::vector<double> xty = x.TransposeTimes(y);
  const size_t p = gram.cols();

  double trace = 0.0;
  for (size_t i = 0; i < p; ++i) trace += gram.At(i, i);
  const double scale = trace > 0.0 ? trace / static_cast<double>(p) : 1.0;

  double lambda = ridge;
  for (int attempt = 0; attempt < 4; ++attempt) {
    Matrix regularized = gram;
    for (size_t i = 0; i < p; ++i) regularized.At(i, i) += lambda;
    Result<std::vector<double>> solved = CholeskySolve(regularized, xty);
    if (solved.ok()) return solved;
    // Singular Gram matrix: escalate the ridge and retry.
    lambda = (lambda == 0.0) ? 1e-10 * scale : lambda * 1e3;
  }
  return Status::Internal("LeastSquares: system singular even with ridge");
}

}  // namespace smartmeter::stats
