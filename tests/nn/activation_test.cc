#include "nn/activation.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "math/backend.h"
#include "tests/testing/reference_fills.h"
#include "tests/testing/reference_gemm.h"

namespace crowdrl::nn {
namespace {

TEST(ActivationTest, ReluValues) {
  Matrix m = Matrix::FromRows({{-1.0, 0.0, 2.0}});
  ApplyActivation(Activation::kRelu, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 2.0);
}

TEST(ActivationTest, SigmoidValues) {
  Matrix m = Matrix::FromRows({{0.0, 100.0, -100.0}});
  ApplyActivation(Activation::kSigmoid, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.5);
  EXPECT_NEAR(m.At(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(m.At(0, 2), 0.0, 1e-12);
}

TEST(ActivationTest, TanhValues) {
  Matrix m = Matrix::FromRows({{0.0, 1.0}});
  ApplyActivation(Activation::kTanh, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_NEAR(m.At(0, 1), std::tanh(1.0), 1e-12);
}

TEST(ActivationTest, IdentityIsNoop) {
  Matrix m = Matrix::FromRows({{-3.0, 4.0}});
  ApplyActivation(Activation::kIdentity, &m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), -3.0);
}

// ApplyActivationRows on a row range against the element-wise seed loop
// (testing::ReferenceActivationRows), bit for bit, for every activation:
// ReLU must map -0.0, +0.0 and NaN to +0.0, and rows outside the range
// stay untouched. Rows are longer than any SIMD width so vector bodies
// and tails both run.
TEST(ActivationTest, RowRangeMatchesTheSeedLoopOnZerosAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {-0.0,  0.0,    nan,    -2.5,
                                      3.0,   1e-300, -1e-300};
  Matrix pre(4, 37);
  for (size_t i = 0; i < pre.data().size(); ++i) {
    pre.data()[i] = values[i % values.size()];
  }
  for (Activation act : {Activation::kRelu, Activation::kIdentity,
                         Activation::kSigmoid, Activation::kTanh}) {
    Matrix got = pre;
    Matrix want = pre;
    ApplyActivationRows(act, &got, 1, 3);
    testing::ReferenceActivationRows(act, &want, 1, 3);
    EXPECT_TRUE(testing::BitEqual(got, want)) << ActivationName(act);
  }
  Matrix relu = pre;
  ApplyActivationRows(Activation::kRelu, &relu, 0, 1);
  EXPECT_FALSE(std::signbit(relu.At(0, 0)));  // -0.0 -> +0.0.
  EXPECT_EQ(relu.At(0, 2), 0.0);              // NaN -> +0.0.
  EXPECT_EQ(relu.At(0, 4), 3.0);
}

// AddActivate (the factorized Q head's layer-0 fill) against the
// two-pass seed form — write a[i] + b[i], then
// testing::ReferenceActivationRows — bit for bit, for every activation,
// out of place and in place (out == a), with every SIMD tier's row kernel
// the host supports, at lengths that leave every vector tail (1 to 9
// elements, and the head's 32- and 64-wide rows). The sums cover -0.0
// (-0.0 + -0.0: ReLU must give +0.0, and x86 max returns its second
// operand, so max(v, +0.0) is right only with v first), +0.0
// (-0.0 + +0.0), NaN, ±Inf, subnormals, negative and positive values.
TEST(ActivationTest, AddActivateMatchesTheTwoPassSeedFormBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> as = {-0.0, -0.0, nan,  1.0,   -3.0, 0.25,
                                  2.0,  inf,  -inf, -tiny, 3 * tiny};
  const std::vector<double> bs = {-0.0, 0.0,  0.5, -1.5, 1.0, 0.5, nan,
                                  -0.0, -1.0, 0.0, inf, -tiny, -2.0};
  for (int t = 0; t <= static_cast<int>(math::ActiveSimdTier()); ++t) {
    const auto tier = static_cast<math::SimdTier>(t);
    for (size_t length : {1, 2, 3, 4, 5, 7, 8, 9, 32, 37, 64}) {
      Matrix a(1, length);
      Matrix b(1, length);
      for (size_t i = 0; i < length; ++i) {
        a.At(0, i) = as[i % as.size()];
        b.At(0, i) = bs[(i + i / as.size()) % bs.size()];
      }
      for (Activation act : {Activation::kRelu, Activation::kIdentity,
                             Activation::kSigmoid, Activation::kTanh}) {
        Matrix want(1, length);
        for (size_t i = 0; i < length; ++i) {
          want.At(0, i) = a.At(0, i) + b.At(0, i);
        }
        testing::ReferenceActivationRows(act, &want, 0, 1);
        Matrix got(1, length);
        AddActivateAtTier(tier, act, a.Row(0), b.Row(0), length, got.Row(0));
        EXPECT_TRUE(testing::BitEqual(got, want))
            << math::SimdTierName(tier) << " " << ActivationName(act)
            << " length " << length;
        Matrix in_place = a;
        AddActivateAtTier(tier, act, in_place.Row(0), b.Row(0), length,
                          in_place.Row(0));
        EXPECT_TRUE(testing::BitEqual(in_place, want))
            << math::SimdTierName(tier) << " " << ActivationName(act)
            << " length " << length << " in place";
      }
    }
  }
  constexpr size_t kLength = 37;
  Matrix a(1, kLength);
  Matrix b(1, kLength);
  for (size_t i = 0; i < kLength; ++i) {
    a.At(0, i) = as[i % as.size()];
    b.At(0, i) = bs[(i + i / as.size()) % bs.size()];
  }
  Matrix relu(1, kLength);
  AddActivate(Activation::kRelu, a.Row(0), b.Row(0), kLength, relu.Row(0));
  EXPECT_FALSE(std::signbit(relu.At(0, 0)));  // -0.0 + -0.0 -> +0.0.
  EXPECT_EQ(relu.At(0, 2), 0.0);              // NaN + 0.5 -> +0.0.
  EXPECT_EQ(relu.At(0, 5), 0.75);             // 0.25 + 0.5.
}

class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

// Finite-difference check: d(act(x))/dx must match ApplyActivationGrad
// evaluated from the post-activation value.
TEST_P(ActivationGradTest, MatchesFiniteDifference) {
  Activation act = GetParam();
  const double kEps = 1e-6;
  for (double x : {-1.7, -0.3, 0.4, 2.1}) {
    Matrix plus = Matrix::FromRows({{x + kEps}});
    Matrix minus = Matrix::FromRows({{x - kEps}});
    ApplyActivation(act, &plus);
    ApplyActivation(act, &minus);
    double numeric = (plus.At(0, 0) - minus.At(0, 0)) / (2.0 * kEps);

    Matrix post = Matrix::FromRows({{x}});
    ApplyActivation(act, &post);
    Matrix grad = Matrix::FromRows({{1.0}});
    ApplyActivationGrad(act, post, &grad);
    EXPECT_NEAR(grad.At(0, 0), numeric, 1e-5)
        << ActivationName(act) << " at x=" << x;
  }
}

// The ReLU gradient is a select, not a branch; it must keep the seed's
// `if (post <= 0) grad = 0` values bit for bit: +0.0 where post is -0.0,
// +0.0 or negative (whatever grad was, NaN included), and grad untouched
// where post is positive or NaN (its sign of zero and NaN included). The
// row is longer than any SIMD width so vector bodies and tails both run.
TEST(ActivationTest, ReluGradMatchesTheSeedBranchOnZerosAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> posts = {-0.0, 0.0, nan, -2.5, 3.0, 1e-300};
  const std::vector<double> grads = {7.0, -7.0, nan, -0.0, 0.0, 5.0};
  Matrix post(1, 37);
  Matrix grad(1, 37);
  for (size_t i = 0; i < 37; ++i) {
    post.At(0, i) = posts[i % posts.size()];
    grad.At(0, i) = grads[(i / posts.size()) % grads.size()];
  }
  Matrix expected = grad;
  for (size_t i = 0; i < expected.data().size(); ++i) {
    if (post.data()[i] <= 0.0) expected.data()[i] = 0.0;  // Seed branch.
  }
  ApplyActivationGrad(Activation::kRelu, post, &grad);
  for (size_t i = 0; i < 37; ++i) {
    EXPECT_EQ(std::memcmp(&grad.At(0, i), &expected.At(0, i), sizeof(double)),
              0)
        << "post " << post.At(0, i) << " grad " << grad.At(0, i)
        << " expected " << expected.At(0, i);
  }
  // Spot checks of the contract itself, independent of the seed loop.
  EXPECT_FALSE(std::signbit(grad.At(0, 0)));  // post -0.0, grad 7 -> +0.0.
  EXPECT_FALSE(std::signbit(grad.At(0, 1)));  // post +0.0, grad 7 -> +0.0.
  EXPECT_EQ(grad.At(0, 2), 7.0);              // post NaN: untouched.
  EXPECT_EQ(grad.At(0, 4), 7.0);              // post positive: untouched.
  EXPECT_TRUE(std::isnan(grad.At(0, 14)));    // post NaN, grad NaN.
  EXPECT_FALSE(std::signbit(grad.At(0, 15))); // post -2.5, grad NaN -> +0.0.
  EXPECT_TRUE(std::signbit(grad.At(0, 22)));  // post 3.0, grad -0.0 kept.
}

INSTANTIATE_TEST_SUITE_P(All, ActivationGradTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

}  // namespace
}  // namespace crowdrl::nn
