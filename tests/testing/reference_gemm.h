#ifndef CROWDRL_TESTS_TESTING_REFERENCE_GEMM_H_
#define CROWDRL_TESTS_TESTING_REFERENCE_GEMM_H_

#include <cstring>

#include "math/matrix.h"

namespace crowdrl::testing {

/// Verbatim copies of the pre-kernel (seed) dense routines, kept as the
/// golden reference the blocked kernels must match bit for bit: the naive
/// i-k-j product — including the historical `a == 0.0` skip, which is a
/// bit-level no-op on finite data — and the element-wise transpose. Do not
/// "fix" or speed these up; their only job is to preserve the historical
/// accumulation order.
inline Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.Row(i);
    double* out_row = out.Row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double v = a_row[k];
      if (v == 0.0) continue;
      const double* b_row = b.Row(k);
      for (size_t j = 0; j < b.cols(); ++j) out_row[j] += v * b_row[j];
    }
  }
  return out;
}

inline Matrix ReferenceTransposed(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) out.At(c, r) = m.At(r, c);
  }
  return out;
}

/// Byte-level equality (distinguishes -0.0 from 0.0 and compares NaN
/// payloads, which EXPECT_DOUBLE_EQ would not).
inline bool BitEqual(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  // An empty matrix may own no buffer, and memcmp must not be handed a
  // null pointer even for zero bytes.
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_REFERENCE_GEMM_H_
