#ifndef CROWDRL_MATH_MATRIX_H_
#define CROWDRL_MATH_MATRIX_H_

#include <cstddef>
#include <vector>

#include "io/serializer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace crowdrl {

/// \brief Dense row-major matrix of doubles.
///
/// The numeric workhorse behind the neural-network library, the confusion
/// matrices, and the labelling-history state. Storage and element access
/// live here; dense products are served by the register-tiled, SIMD-dispatched
/// kernels in `math/gemm.h` (`MatMul` delegates to `gemm::MatMulInto`;
/// transpose-aware and out-parameter variants live there too). Still no
/// external BLAS dependency — the kernel layer is self-contained and keeps
/// results bit-identical to the historical naive loops.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized (or filled with `init`).
  Matrix(size_t rows, size_t cols, double init = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Builds from nested initializer data; all rows must have equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    CROWDRL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    CROWDRL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  /// Raw row pointer; valid for cols() doubles.
  double* Row(size_t r) {
    CROWDRL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* Row(size_t r) const {
    CROWDRL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Copies one row into a vector.
  std::vector<double> RowVector(size_t r) const;

  /// Overwrites one row from a vector of length cols().
  void SetRow(size_t r, const std::vector<double>& values);

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Reshapes to rows x cols, keeping the allocation when it is large
  /// enough, so scratch whose row count varies per call stops
  /// reallocating. Element values are unspecified afterwards: callers
  /// overwrite them.
  void Reshape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  void Fill(double value);

  /// Fills with i.i.d. Gaussian(mean, stddev) draws.
  void FillGaussian(Rng* rng, double mean, double stddev);

  /// Fills with i.i.d. Uniform[lo, hi) draws.
  void FillUniform(Rng* rng, double lo, double hi);

  /// this += other (element-wise; shapes must match).
  void Add(const Matrix& other);

  /// this += alpha * other.
  void Axpy(double alpha, const Matrix& other);

  /// this *= alpha.
  void Scale(double alpha);

  /// Matrix product: (rows x cols) * (cols x n) -> (rows x n).
  Matrix MatMul(const Matrix& other) const;

  /// y = this * x for a vector x of length cols().
  std::vector<double> MatVec(const std::vector<double>& x) const;

  Matrix Transposed() const;

  /// Sum of main-diagonal elements (the paper's tr(.) in Eq. for quality).
  double Trace() const;

  /// Largest absolute element; 0 for an empty matrix.
  double MaxAbs() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Checkpointable surface: shape + raw element bits (bit-exact
  /// round-trip). LoadState accepts any shape — callers that require a
  /// fixed shape validate after loading.
  void SaveState(io::Writer* writer) const;
  Status LoadState(io::Reader* reader);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace crowdrl

#endif  // CROWDRL_MATH_MATRIX_H_
