#include "nn/optimizer.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "math/backend.h"
#include "nn/loss.h"
#include "tests/testing/seed_training.h"
#include "util/random.h"

namespace crowdrl::nn {
namespace {

// Trains y = 2x - 1 with a linear net; returns the final MSE.
double TrainLinear(Optimizer* optimizer, int steps, uint64_t seed) {
  Rng rng(seed);
  Mlp net({1, 1}, {Activation::kIdentity}, &rng);
  Matrix x(16, 1);
  Matrix y(16, 1);
  for (size_t i = 0; i < 16; ++i) {
    double xi = rng.Uniform(-1.0, 1.0);
    x.At(i, 0) = xi;
    y.At(i, 0) = 2.0 * xi - 1.0;
  }
  double loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    Matrix grad;
    loss = MseLoss(net.Forward(x), y, &grad);
    net.Backward(grad);
    optimizer->Step(&net);
  }
  return loss;
}

TEST(SgdTest, ConvergesOnLinearRegression) {
  Sgd sgd(0.3);
  EXPECT_LT(TrainLinear(&sgd, 300, 1), 1e-6);
}

TEST(SgdTest, MomentumConverges) {
  Sgd sgd(0.1, 0.9);
  EXPECT_LT(TrainLinear(&sgd, 300, 2), 1e-6);
}

TEST(AdamTest, ConvergesOnLinearRegression) {
  Adam adam(0.05);
  EXPECT_LT(TrainLinear(&adam, 500, 3), 1e-5);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  Rng rng(4);
  Mlp net({1, 1}, {Activation::kIdentity}, &rng);
  // No data gradient, only decay: weights must shrink toward zero.
  Sgd sgd(0.1, 0.0, 0.5);
  double before = std::abs(net.ParamViews()[0].value[0]);
  for (int i = 0; i < 50; ++i) {
    net.ZeroGrad();
    sgd.Step(&net);
  }
  double after = std::abs(net.ParamViews()[0].value[0]);
  EXPECT_LT(after, before * 0.1 + 1e-9);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Rng rng(5);
  Mlp net({2, 2}, {Activation::kIdentity}, &rng);
  Matrix x = Matrix::FromRows({{1.0, 1.0}});
  Matrix t = Matrix::FromRows({{0.0, 0.0}});
  Matrix grad;
  MseLoss(net.Forward(x), t, &grad);
  net.Backward(grad);
  Sgd sgd(0.01);
  sgd.Step(&net);
  for (const ParamView& v : net.ParamViews()) {
    for (size_t i = 0; i < v.size; ++i) {
      EXPECT_DOUBLE_EQ(v.grad[i], 0.0);
    }
  }
}

TEST(OptimizerDeathTest, RebindingToDifferentNetworkAborts) {
  Rng rng(6);
  Mlp small({1, 1}, {Activation::kIdentity}, &rng);
  Mlp big({4, 4}, {Activation::kIdentity}, &rng);
  Sgd sgd(0.1);
  sgd.Step(&small);
  EXPECT_DEATH(sgd.Step(&big), "optimizer bound");
}

TEST(AdamTest, FirstStepHasUnitScaleRegardlessOfGradientMagnitude) {
  // Adam's bias-corrected first update is lr * g / (|g| + eps) — i.e.
  // approximately lr * sign(g) whatever the gradient scale.
  Rng rng(7);
  Mlp net({1, 1}, {Activation::kIdentity}, &rng);
  ParamView view = net.ParamViews()[0];
  double before = view.value[0];
  view.grad[0] = 1234.5;  // Huge gradient.
  Adam adam(0.01);
  adam.Step(&net);
  double after = net.ParamViews()[0].value[0];
  EXPECT_NEAR(before - after, 0.01, 1e-6);
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Every SIMD tier the host runs must reproduce the seed's scalar Adam
// update byte for byte: values and both moment buffers, over several steps
// with weight decay, at block sizes that cover whole vectors (8, 3,378 —
// phi's parameter count), vector tails (7, 13) and a lone element (1).
TEST(AdamTest, EveryTierMatchesTheSeedUpdateBitForBit) {
  constexpr double kLr = 5e-3, kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8,
                   kDecay = 3e-3;
  for (int t = 0; t <= static_cast<int>(math::ActiveSimdTier()); ++t) {
    const auto tier = static_cast<math::SimdTier>(t);
    for (size_t n : {1u, 7u, 8u, 13u, 3378u}) {
      Rng rng(100 * n + static_cast<size_t>(t));
      std::vector<double> value(n);
      for (double& x : value) x = rng.Uniform(-1.0, 1.0);
      std::vector<double> seed_value = value;
      std::vector<double> grad(n);
      std::vector<double> m(n, 0.0);
      std::vector<double> v(n, 0.0);
      testing::SeedAdam seed(kLr, kBeta1, kBeta2, kEps, kDecay);
      for (size_t step = 1; step <= 6; ++step) {
        // Gradients spanning many magnitudes, with exact and negative
        // zeros, so the division and square root see varied operands.
        for (size_t j = 0; j < n; ++j) {
          double scale = std::pow(10.0, rng.Uniform(-6.0, 2.0));
          grad[j] = rng.Uniform(-1.0, 1.0) * scale;
          if (j % 5 == 3) grad[j] = step % 2 == 0 ? 0.0 : -0.0;
        }
        std::vector<ParamView> seed_views = {
            {seed_value.data(), grad.data(), n}};
        seed.Update(&seed_views);
        const AdamStepConstants k{
            kLr, kBeta1, kBeta2, kEps, kDecay,
            1.0 - std::pow(kBeta1, static_cast<double>(step)),
            1.0 - std::pow(kBeta2, static_cast<double>(step))};
        AdamUpdateAtTier(tier, k, {value.data(), grad.data(), n}, m.data(),
                         v.data());
        ASSERT_TRUE(BytesEqual(value, seed_value))
            << math::SimdTierName(tier) << " n=" << n << " step " << step;
        ASSERT_TRUE(BytesEqual(m, seed.m(0)))
            << math::SimdTierName(tier) << " n=" << n << " step " << step;
        ASSERT_TRUE(BytesEqual(v, seed.v(0)))
            << math::SimdTierName(tier) << " n=" << n << " step " << step;
      }
    }
  }
}

// Adam::Step (the active tier behind the optimizer interface) against the
// seed optimizer on two copies of one network.
TEST(AdamTest, StepMatchesTheSeedOptimizerBitForBit) {
  Rng rng(17);
  Mlp net({6, 13, 3}, {Activation::kRelu, Activation::kIdentity}, &rng);
  Mlp seed_net = net;
  Matrix x(9, 6);
  x.FillUniform(&rng, -1.0, 1.0);
  Matrix target(9, 3);
  target.FillUniform(&rng, -1.0, 1.0);
  Adam adam(1e-2, 0.9, 0.999, 1e-8, 1e-4);
  testing::SeedAdam seed(1e-2, 0.9, 0.999, 1e-8, 1e-4);
  Matrix grad;
  for (int step = 0; step < 20; ++step) {
    MseLoss(net.Forward(x), target, &grad);
    net.Backward(grad);
    adam.Step(&net);
    MseLoss(seed_net.Forward(x), target, &grad);
    seed_net.Backward(grad);
    seed.Step(&seed_net);
    ASSERT_TRUE(BytesEqual(net.FlatParameters(), seed_net.FlatParameters()))
        << "step " << step;
  }
}

}  // namespace
}  // namespace crowdrl::nn
