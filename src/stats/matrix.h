#ifndef SMARTMETER_STATS_MATRIX_H_
#define SMARTMETER_STATS_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace smartmeter::stats {

/// Small dense row-major matrix of doubles. Sized for regression design
/// matrices (thousands of rows, < 10 columns); not a general BLAS.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }

  /// Returns this^T * this, the (cols x cols) Gram matrix, computed in a
  /// single pass. This is the hot step of normal-equation OLS.
  Matrix Gram() const;

  /// Returns this^T * v for a vector with rows() entries.
  std::vector<double> TransposeTimes(const std::vector<double>& v) const;

  Matrix Multiply(const Matrix& other) const;
  Matrix Transposed() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves the symmetric positive-definite system A x = b via Cholesky
/// factorization. Fails with InvalidArgument on shape mismatch and with
/// Internal if A is not (numerically) positive definite.
Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b);

/// Least-squares solve of X beta = y via ridge-stabilized normal equations:
/// (X^T X + ridge I) beta = X^T y. `ridge` defaults to 0 and is raised
/// automatically (up to a small epsilon scaled by the Gram diagonal) when
/// the unregularized system is singular -- collinear regressors are common
/// in real meter data (e.g. a consumer with constant consumption).
Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double ridge = 0.0);

}  // namespace smartmeter::stats

#endif  // SMARTMETER_STATS_MATRIX_H_
