#include "math/gemm.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "math/backend.h"
#include "math/matrix.h"
#include "nn/activation.h"
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

/// Shapes chosen to hit every tiling edge: an empty product (zero output
/// rows), scalars, single rows/columns, an empty inner dimension, sizes
/// below/at/above the 4-row register tile, widths that are not multiples
/// of any vector or tile width (8/32 on AVX-512, 4/8 on AVX2), depths
/// across the 256-term k panel, and the portable 16x256 tile. The last
/// rows are the serving shapes: 64-row chunks and 256-row blocks of every
/// Q-network (12->64->32->1) and classifier (208->16->2) layer. The
/// one-column products (n == 1) run the rows-in-lanes tile: row counts
/// that leave a lane tail at 4 and 8 lanes, and a deep one.
struct Shape {
  size_t m, k, n;
};

const Shape kOddShapes[] = {
    {0, 4, 3},
    {1, 1, 1},    {1, 1, 7},     {1, 9, 1},     {3, 1, 5},     {3, 0, 5},
    {2, 3, 4},    {4, 4, 4},     {5, 5, 5},     {7, 13, 3},
    {17, 31, 9},  {64, 64, 64},  {65, 33, 67},  {130, 600, 19},
    {64, 12, 64}, {64, 64, 32},  {64, 32, 1},   {64, 208, 16},
    {64, 16, 2},  {256, 12, 64}, {256, 64, 32}, {256, 32, 1},
    {256, 208, 16}, {256, 16, 2},
    {7, 32, 1},   {9, 32, 1},    {257, 32, 1},  {17, 300, 1},
};

/// The activations an NT product's epilogue is checked with: identity and
/// ReLU run in the kernel, tanh on the stored sums.
const nn::Activation kEpilogueActs[] = {
    nn::Activation::kIdentity, nn::Activation::kRelu, nn::Activation::kTanh};

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

/// The reference order of a fused layer tail: `product` as stored, then
/// nn::AddActivate of each row against `bias`.
Matrix ReferenceEpilogue(Matrix product, const std::vector<double>& bias,
                         nn::Activation act) {
  for (size_t r = 0; r < product.rows(); ++r) {
    nn::AddActivate(act, product.Row(r), bias.data(), product.cols(),
                    product.Row(r));
  }
  return product;
}

/// A · Bᵀ at `tier` with `bias` and `act` fused the way the MLP fuses a
/// layer: the bias add and ReLU in the kernel's epilogue, any other
/// activation on the stored sums.
Matrix FusedNT(math::SimdTier tier, const Matrix& a, const Matrix& bt,
               const std::vector<double>& bias, nn::Activation act) {
  Matrix out;
  MatMulNTIntoAtTier(tier, a, bt, &out,
                     {bias.data(), act == nn::Activation::kRelu});
  if (act == nn::Activation::kTanh) {
    nn::ApplyActivationSpan(act, out.data().data(), out.size());
  }
  return out;
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
  // Every tier's plain products against the reference, and its fused
  // epilogue against the stored product followed by nn::AddActivate: the
  // k = 600 and k = 300 shapes span several 256-term panels, so a bias or
  // ReLU applied on any panel but the last shows.
  for (math::SimdTier tier : SupportedTiers()) {
    Rng rng(21);
    for (const Shape& s : kOddShapes) {
      const Matrix a = RandomMatrix(s.m, s.k, &rng);
      const Matrix b = RandomMatrix(s.k, s.n, &rng);
      const Matrix bt = RandomMatrix(s.n, s.k, &rng);
      const Matrix at = RandomMatrix(s.k, s.m, &rng);
      std::vector<double> bias(s.n);
      for (double& v : bias) v = rng.Uniform(-1.0, 1.0);
      Matrix nn, nt, tn;
      MatMulIntoAtTier(tier, a, b, &nn);
      MatMulNTIntoAtTier(tier, a, bt, &nt);
      MatMulTNIntoAtTier(tier, at, b, &tn);
      EXPECT_TRUE(BitEqual(nn, ReferenceMatMul(a, b)))
          << math::SimdTierName(tier) << " NN " << s.m << "x" << s.k << "x"
          << s.n;
      const Matrix nt_want = ReferenceMatMul(a, ReferenceTransposed(bt));
      EXPECT_TRUE(BitEqual(nt, nt_want))
          << math::SimdTierName(tier) << " NT " << s.m << "x" << s.k << "x"
          << s.n;
      EXPECT_TRUE(BitEqual(tn, ReferenceMatMul(ReferenceTransposed(at), b)))
          << math::SimdTierName(tier) << " TN " << s.m << "x" << s.k << "x"
          << s.n;
      for (nn::Activation act : kEpilogueActs) {
        EXPECT_TRUE(BitEqual(FusedNT(tier, a, bt, bias, act),
                             ReferenceEpilogue(nt_want, bias, act)))
            << math::SimdTierName(tier) << " NT+" << nn::ActivationName(act)
            << " " << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }
}

TEST(GemmTest, EveryTierKeepsSpecialValuesBitwise) {
  // Signed zeros, subnormals, NaN and infinities in both operands: every
  // tier must produce the dense reference's bits (NaN payloads aside). The
  // signed zeros pin the +0.0 accumulator start: an element whose terms
  // are all -0.0 (every element of the third data set, A all -0.0 against
  // B all 1.0, and of the k = 0 shape) is +0.0 only from a +0.0 start, in
  // the register tile and in the rows-in-lanes tile alike. The fused
  // epilogue takes a bias drawn from the same
  // values, so its ReLU sees sums that are NaN, +0.0 (+0.0 plus a -0.0
  // bias), ±Inf and subnormal: x86 max returns its second operand unless
  // the first is greater, and only max(v, +0.0) maps NaN to +0.0.
  for (math::SimdTier tier : SupportedTiers()) {
    Rng rng(22);
    for (const Shape& s : kOddShapes) {
      for (int data : {0, 1, 2}) {
        const bool non_finite = data == 1;
        Matrix a(s.m, s.k), b(s.k, s.n), bias_row(1, s.n);
        if (data == 2) {
          a.Fill(-0.0);
          b.Fill(1.0);
        } else {
          FillSpecial(&a, &rng, non_finite);
          FillSpecial(&b, &rng, non_finite);
        }
        FillSpecial(&bias_row, &rng, non_finite);
        const std::vector<double> bias = bias_row.RowVector(0);
        const Matrix expect = DenseReferenceMatMul(a, b);
        const Matrix bt = ReferenceTransposed(b);
        for (nn::Activation act : kEpilogueActs) {
          EXPECT_TRUE(BitEqualUpToNanPayload(
              FusedNT(tier, a, bt, bias, act),
              ReferenceEpilogue(expect, bias, act)))
              << math::SimdTierName(tier) << " NT+"
              << nn::ActivationName(act) << " " << s.m << "x" << s.k << "x"
              << s.n << " data=" << data;
        }
        Matrix nn, nt, tn;
        MatMulIntoAtTier(tier, a, b, &nn);
        MatMulNTIntoAtTier(tier, a, bt, &nt);
        MatMulTNIntoAtTier(tier, ReferenceTransposed(a), b, &tn);
        EXPECT_TRUE(BitEqualUpToNanPayload(nn, expect))
            << math::SimdTierName(tier) << " NN " << s.m << "x" << s.k
            << "x" << s.n << " data=" << data;
        EXPECT_TRUE(BitEqualUpToNanPayload(nt, expect))
            << math::SimdTierName(tier) << " NT " << s.m << "x" << s.k
            << "x" << s.n << " data=" << data;
        EXPECT_TRUE(BitEqualUpToNanPayload(tn, expect))
            << math::SimdTierName(tier) << " TN " << s.m << "x" << s.k
            << "x" << s.n << " data=" << data;
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
  // must be byte-identical to serial. Pooled chunks run the epilogue
  // inside their kernel call, so the fused NT product is checked against
  // the stored product plus one nn::AddActivate pass per row: a row whose
  // bias were added twice, or not at all, would differ.
  Rng rng(17);
  const Shape shapes[] = {{1, 5, 3},      {63, 40, 17}, {64, 80, 33},
                          {65, 80, 33},   {200, 129, 70}, {513, 64, 8},
                          {300, 32, 1}};
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

      std::vector<double> bias(s.n);
      for (double& v : bias) v = rng.Uniform(-1.0, 1.0);
      Matrix fused_serial, fused_threaded;
      MatMulNTInto(a, bt, &fused_serial, nullptr, {bias.data(), true});
      MatMulNTInto(a, bt, &fused_threaded, &pool, {bias.data(), true});
      const Matrix fused_want =
          ReferenceEpilogue(nt_serial, bias, nn::Activation::kRelu);
      EXPECT_TRUE(BitEqual(fused_serial, fused_want))
          << "NT+relu serial m=" << s.m;
      EXPECT_TRUE(BitEqual(fused_threaded, fused_want))
          << "NT+relu threads=" << threads << " m=" << s.m;

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
  // The epilogue adds the bias to every output element once, after its
  // whole sum, serially and on a pool, whose row chunks each run it inside
  // their own kernel call: out == A·Bᵀ + bias bit for bit on every row. A
  // row whose bias were added twice, or never, would differ. 150 rows span
  // several chunks and leave a lane tail; n == 1 runs the rows-in-lanes
  // tile.
  Rng rng(18);
  for (size_t n : {7, 1}) {
    Matrix a = RandomMatrix(150, 20, &rng);
    Matrix b = RandomMatrix(n, 20, &rng);
    std::vector<double> bias(n);
    for (double& v : bias) v = rng.Uniform(1.0, 2.0);
    Matrix expect = ReferenceMatMul(a, ReferenceTransposed(b));
    for (size_t r = 0; r < expect.rows(); ++r) {
      for (size_t c = 0; c < n; ++c) expect.Row(r)[c] += bias[c];
    }
    for (size_t threads : {0, 2, 4}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      Matrix out;
      MatMulNTInto(a, b, &out, pool.get(), {bias.data(), false});
      EXPECT_TRUE(BitEqual(out, expect))
          << "n=" << n << " threads=" << threads;
    }
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
  MatMulNTInto(a, b, &with_scratch, nullptr, {}, &scratch);
  MatMulNTInto(a, b, &without_scratch);
  EXPECT_TRUE(BitEqual(with_scratch, without_scratch));
  // The scratch holds B^T afterwards and is reused by shape.
  EXPECT_TRUE(BitEqual(scratch, ReferenceTransposed(b)));
}

TEST(GemmTest, SimdTierNameIsKnown) {
  const std::string tier = math::SimdTierName(math::ActiveSimdTier());
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
