#include "math/gemm.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "math/backend.h"
#include "math/matrix.h"
#include "tests/testing/reference_gemm.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace crowdrl::gemm {
namespace {

using ::crowdrl::testing::BitEqual;
using ::crowdrl::testing::ReferenceMatMul;
using ::crowdrl::testing::ReferenceTransposed;

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  m.FillUniform(rng, -1.0, 1.0);
  return m;
}

/// Shapes chosen to hit every tiling edge: scalars, single rows/columns,
/// an empty inner dimension, sizes below/at/above the 4-row register tile,
/// widths that are not multiples of any vector or tile width (8/32 on
/// AVX-512, 4/8 on AVX2), depths across the 256-term k panel, and the
/// portable 16x256 tile. The last rows are the serving shapes: 64-row
/// chunks and 256-row blocks of every Q-network (12->64->32->1) and
/// classifier (208->16->2) layer.
struct Shape {
  size_t m, k, n;
};

const Shape kOddShapes[] = {
    {1, 1, 1},    {1, 1, 7},     {1, 9, 1},     {3, 1, 5},     {3, 0, 5},
    {2, 3, 4},    {4, 4, 4},     {5, 5, 5},     {7, 13, 3},
    {17, 31, 9},  {64, 64, 64},  {65, 33, 67},  {130, 600, 19},
    {64, 12, 64}, {64, 64, 32},  {64, 32, 1},   {64, 208, 16},
    {64, 16, 2},  {256, 12, 64}, {256, 64, 32}, {256, 32, 1},
    {256, 208, 16}, {256, 16, 2},
};

/// Every SIMD tier this host can run: each tier up to the active one.
std::vector<math::SimdTier> SupportedTiers() {
  std::vector<math::SimdTier> tiers;
  for (math::SimdTier tier : {math::SimdTier::kPortable,
                              math::SimdTier::kAvx2,
                              math::SimdTier::kAvx512}) {
    if (static_cast<int>(tier) <= static_cast<int>(math::ActiveSimdTier())) {
      tiers.push_back(tier);
    }
  }
  return tiers;
}

/// The naive i-k-j product from a +0.0 start without the reference's
/// zero skip, so 0 * Inf and 0 * NaN terms count like any other.
Matrix DenseReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t t = 0; t < a.cols(); ++t) {
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += a.At(i, t) * b.At(t, j);
      }
    }
  }
  return out;
}

/// Bit equality that lets any NaN match any NaN: which operand's payload
/// a NaN result carries depends on the instruction's operand order, which
/// the compiler picks.
bool BitEqualUpToNanPayload(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

/// Fills `m` with values drawn from IEEE edge cases: signed zeros,
/// subnormals, NaN, both infinities, and ordinary finite values.
void FillSpecial(Matrix* m, Rng* rng, bool with_non_finite) {
  const double kSubnormal = std::numeric_limits<double>::denorm_min();
  const double finite[] = {0.0,         -0.0,        kSubnormal * 3.0,
                           -kSubnormal, 1e-310,      -2.5e-309,
                           1.0,         -1.0,        0.375,
                           1e300,       -1e-300};
  const double non_finite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double& v : m->data()) {
    const int pick = rng->UniformInt(16);
    if (with_non_finite && pick == 15) {
      v = non_finite[rng->UniformInt(3)];
    } else if (pick < 11) {
      v = finite[pick];
    } else {
      v = rng->Uniform(-1.0, 1.0);
    }
  }
}

TEST(GemmTest, MatMulIntoMatchesReferenceBitwise) {
  Rng rng(11);
  for (const Shape& s : kOddShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix out;
    MatMulInto(a, b, &out);
    EXPECT_TRUE(BitEqual(out, ReferenceMatMul(a, b)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmTest, MatMulNTMatchesReferenceBitwise) {
  Rng rng(12);
  for (const Shape& s : kOddShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.n, s.k, &rng);  // C = A * B^T
    Matrix got = MatMulNT(a, b);
    EXPECT_TRUE(BitEqual(got, ReferenceMatMul(a, ReferenceTransposed(b))))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmTest, MatMulTNMatchesReferenceBitwise) {
  Rng rng(13);
  for (const Shape& s : kOddShapes) {
    Matrix a = RandomMatrix(s.k, s.m, &rng);  // C = A^T * B
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    Matrix got = MatMulTN(a, b);
    EXPECT_TRUE(BitEqual(got, ReferenceMatMul(ReferenceTransposed(a), b)))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmTest, EveryTierMatchesReferenceBitwise) {
  for (math::SimdTier tier : SupportedTiers()) {
    Rng rng(21);
    for (const Shape& s : kOddShapes) {
      const Matrix a = RandomMatrix(s.m, s.k, &rng);
      const Matrix b = RandomMatrix(s.k, s.n, &rng);
      const Matrix bt = RandomMatrix(s.n, s.k, &rng);
      const Matrix at = RandomMatrix(s.k, s.m, &rng);
      Matrix nn, nt, tn;
      MatMulIntoAtTier(tier, a, b, &nn);
      MatMulNTIntoAtTier(tier, a, bt, &nt);
      MatMulTNIntoAtTier(tier, at, b, &tn);
      EXPECT_TRUE(BitEqual(nn, ReferenceMatMul(a, b)))
          << math::SimdTierName(tier) << " NN " << s.m << "x" << s.k << "x"
          << s.n;
      EXPECT_TRUE(BitEqual(nt, ReferenceMatMul(a, ReferenceTransposed(bt))))
          << math::SimdTierName(tier) << " NT " << s.m << "x" << s.k << "x"
          << s.n;
      EXPECT_TRUE(BitEqual(tn, ReferenceMatMul(ReferenceTransposed(at), b)))
          << math::SimdTierName(tier) << " TN " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

TEST(GemmTest, EveryTierKeepsSpecialValuesBitwise) {
  // Signed zeros, subnormals, NaN and infinities in both operands: every
  // tier must produce the dense reference's bits (NaN payloads aside). The
  // signed zeros pin the +0.0 accumulator start: an element whose terms
  // are all -0.0 (and every element of the k = 0 shape) is +0.0 only from
  // a +0.0 start.
  for (math::SimdTier tier : SupportedTiers()) {
    Rng rng(22);
    for (const Shape& s : kOddShapes) {
      for (bool non_finite : {false, true}) {
        Matrix a(s.m, s.k), b(s.k, s.n);
        FillSpecial(&a, &rng, non_finite);
        FillSpecial(&b, &rng, non_finite);
        const Matrix expect = DenseReferenceMatMul(a, b);
        Matrix nn, nt, tn;
        MatMulIntoAtTier(tier, a, b, &nn);
        MatMulNTIntoAtTier(tier, a, ReferenceTransposed(b), &nt);
        MatMulTNIntoAtTier(tier, ReferenceTransposed(a), b, &tn);
        EXPECT_TRUE(BitEqualUpToNanPayload(nn, expect))
            << math::SimdTierName(tier) << " NN " << s.m << "x" << s.k
            << "x" << s.n << " non_finite=" << non_finite;
        EXPECT_TRUE(BitEqualUpToNanPayload(nt, expect))
            << math::SimdTierName(tier) << " NT " << s.m << "x" << s.k
            << "x" << s.n << " non_finite=" << non_finite;
        EXPECT_TRUE(BitEqualUpToNanPayload(tn, expect))
            << math::SimdTierName(tier) << " TN " << s.m << "x" << s.k
            << "x" << s.n << " non_finite=" << non_finite;
      }
    }
  }
}

TEST(GemmTest, MatchesReferenceOnSparseInputs) {
  // Post-ReLU operands are ~half exact zeros; the reference's historical
  // zero-skip must still agree bit for bit with the dense kernels.
  Rng rng(14);
  Matrix a = RandomMatrix(33, 70, &rng);
  Matrix b = RandomMatrix(70, 21, &rng);
  for (size_t i = 0; i < a.data().size(); i += 2) a.data()[i] = 0.0;
  Matrix out;
  MatMulInto(a, b, &out);
  EXPECT_TRUE(BitEqual(out, ReferenceMatMul(a, b)));
}

TEST(GemmTest, LargeShapeCrossesAllTileBoundaries) {
  // Bigger than one NN j-tile (512) and k-panel (512) in every dimension
  // that matters, and deliberately off any multiple of 4 or 64.
  Rng rng(15);
  Matrix a = RandomMatrix(131, 515, &rng);
  Matrix b = RandomMatrix(515, 517, &rng);
  Matrix out;
  MatMulInto(a, b, &out);
  EXPECT_TRUE(BitEqual(out, ReferenceMatMul(a, b)));

  Matrix bt = RandomMatrix(517, 515, &rng);
  EXPECT_TRUE(
      BitEqual(MatMulNT(a, bt), ReferenceMatMul(a, ReferenceTransposed(bt))));
  Matrix at = RandomMatrix(515, 131, &rng);
  EXPECT_TRUE(BitEqual(MatMulTN(at, b),
                       ReferenceMatMul(ReferenceTransposed(at), b)));
}

TEST(GemmTest, ZeroInnerDimensionYieldsZeros) {
  Matrix a(3, 0);
  Matrix b(0, 4);
  Matrix out;
  MatMulInto(a, b, &out);
  ASSERT_EQ(out.rows(), 3u);
  ASSERT_EQ(out.cols(), 4u);
  for (double v : out.data()) EXPECT_EQ(v, 0.0);
}

TEST(GemmTest, NanAndInfPropagate) {
  // Unlike the historical zero-skip loop, 0 * NaN and 0 * Inf now follow
  // IEEE semantics like every other dense path.
  Matrix a = Matrix::FromRows({{0.0, 1.0}});
  Matrix b = Matrix::FromRows({{std::nan(""), 1.0}, {2.0, 3.0}});
  Matrix out;
  MatMulInto(a, b, &out);
  EXPECT_TRUE(std::isnan(out.At(0, 0)));
  EXPECT_EQ(out.At(0, 1), 3.0);

  Matrix inf_b = Matrix::FromRows({{INFINITY, 1.0}, {2.0, 3.0}});
  MatMulInto(a, inf_b, &out);
  EXPECT_TRUE(std::isnan(out.At(0, 0)));  // 0 * inf = NaN
}

TEST(GemmTest, TransposeIntoRoundTrips) {
  Rng rng(16);
  Matrix m = RandomMatrix(7, 13, &rng);
  Matrix t;
  TransposeInto(m, &t);
  EXPECT_TRUE(BitEqual(t, ReferenceTransposed(m)));
  Matrix back;
  TransposeInto(t, &back);
  EXPECT_TRUE(BitEqual(back, m));
}

TEST(GemmTest, ThreadedMatchesSerialBitwise) {
  // The parallel-scoring invariant (threads never change results), pushed
  // down to the kernel layer: row chunks are disjoint, so any thread count
  // must be byte-identical to serial.
  Rng rng(17);
  const Shape shapes[] = {{1, 5, 3}, {63, 40, 17}, {64, 80, 33},
                          {65, 80, 33}, {200, 129, 70}, {513, 64, 8}};
  for (size_t threads : {2, 4}) {
    ThreadPool pool(threads);
    for (const Shape& s : shapes) {
      Matrix a = RandomMatrix(s.m, s.k, &rng);
      Matrix b = RandomMatrix(s.k, s.n, &rng);
      Matrix serial, threaded;
      MatMulInto(a, b, &serial);
      MatMulInto(a, b, &threaded, &pool);
      EXPECT_TRUE(BitEqual(serial, threaded))
          << "NN threads=" << threads << " m=" << s.m;

      Matrix bt = RandomMatrix(s.n, s.k, &rng);
      Matrix nt_serial, nt_threaded;
      MatMulNTInto(a, bt, &nt_serial);
      MatMulNTInto(a, bt, &nt_threaded, &pool);
      EXPECT_TRUE(BitEqual(nt_serial, nt_threaded))
          << "NT threads=" << threads << " m=" << s.m;

      Matrix at = RandomMatrix(s.k, s.m, &rng);
      Matrix tn_serial, tn_threaded;
      MatMulTNInto(at, b, &tn_serial);
      MatMulTNInto(at, b, &tn_threaded, &pool);
      EXPECT_TRUE(BitEqual(tn_serial, tn_threaded))
          << "TN threads=" << threads << " m=" << s.m;
    }
  }
}

TEST(GemmTest, EpilogueSeesEveryRowExactlyOnce) {
  Rng rng(18);
  Matrix a = RandomMatrix(150, 20, &rng);
  Matrix b = RandomMatrix(7, 20, &rng);
  std::vector<int> visits(a.rows(), 0);
  Matrix out;
  MatMulNTInto(a, b, &out, nullptr, [&](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      ++visits[r];
      double* row = out.Row(r);
      for (size_t c = 0; c < out.cols(); ++c) row[c] += 1.0;
    }
  });
  for (int v : visits) EXPECT_EQ(v, 1);
  // The epilogue ran after the product: out == A*B^T + 1 everywhere.
  Matrix expect = ReferenceMatMul(a, ReferenceTransposed(b));
  for (size_t i = 0; i < expect.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(out.data()[i], expect.data()[i] + 1.0);
  }
}

TEST(GemmTest, OutputBufferIsReusedAcrossCalls) {
  Rng rng(19);
  Matrix a = RandomMatrix(9, 6, &rng);
  Matrix b = RandomMatrix(6, 5, &rng);
  Matrix out;
  MatMulInto(a, b, &out);
  const double* storage = out.data().data();
  MatMulInto(a, b, &out);  // Same shape: no reallocation.
  EXPECT_EQ(out.data().data(), storage);
  EXPECT_TRUE(BitEqual(out, ReferenceMatMul(a, b)));
  // Stale contents from a previous call must not leak into the result.
  Matrix c = RandomMatrix(6, 5, &rng);
  MatMulInto(a, c, &out);
  EXPECT_TRUE(BitEqual(out, ReferenceMatMul(a, c)));
}

TEST(GemmTest, PersistentScratchMatchesThreadLocalFallback) {
  Rng rng(20);
  Matrix a = RandomMatrix(21, 30, &rng);
  Matrix b = RandomMatrix(11, 30, &rng);
  Matrix with_scratch, without_scratch, scratch;
  MatMulNTInto(a, b, &with_scratch, nullptr, nullptr, &scratch);
  MatMulNTInto(a, b, &without_scratch);
  EXPECT_TRUE(BitEqual(with_scratch, without_scratch));
  // The scratch holds B^T afterwards and is reused by shape.
  EXPECT_TRUE(BitEqual(scratch, ReferenceTransposed(b)));
}

TEST(GemmTest, SimdTierNameIsKnown) {
  const std::string tier = SimdTierName();
  EXPECT_TRUE(tier == "portable" || tier == "avx2" || tier == "avx512")
      << tier;
}

TEST(GemmDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 3);
  Matrix b(4, 2);
  Matrix out;
  EXPECT_DEATH(MatMulInto(a, b, &out), "matmul shape mismatch");
  EXPECT_DEATH(MatMulNT(a, a.Transposed()), "matmul shape mismatch");
  EXPECT_DEATH(MatMulTN(a, b), "matmul shape mismatch");
}

}  // namespace
}  // namespace crowdrl::gemm
