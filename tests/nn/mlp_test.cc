#include "nn/mlp.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "tests/testing/reference_gemm.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace crowdrl::nn {
namespace {

Mlp SmallNet(uint64_t seed) {
  Rng rng(seed);
  return Mlp({3, 4, 2},
             {Activation::kTanh, Activation::kIdentity}, &rng);
}

TEST(MlpTest, ShapesAndDeterminism) {
  Mlp a = SmallNet(1);
  Mlp b = SmallNet(1);
  EXPECT_EQ(a.input_size(), 3u);
  EXPECT_EQ(a.output_size(), 2u);
  EXPECT_EQ(a.num_layers(), 2u);
  EXPECT_EQ(a.FlatParameters(), b.FlatParameters());
  Mlp c = SmallNet(2);
  EXPECT_NE(a.FlatParameters(), c.FlatParameters());
}

TEST(MlpTest, InferMatchesForward) {
  Mlp net = SmallNet(3);
  Matrix x = Matrix::FromRows({{0.1, -0.5, 0.7}, {1.0, 0.0, -1.0}});
  Matrix fwd = net.Forward(x);
  Matrix inf = net.Infer(x);
  ASSERT_TRUE(fwd.SameShape(inf));
  for (size_t i = 0; i < fwd.size(); ++i) {
    EXPECT_DOUBLE_EQ(fwd.data()[i], inf.data()[i]);
  }
  std::vector<double> single = net.Infer(std::vector<double>{0.1, -0.5, 0.7});
  EXPECT_DOUBLE_EQ(single[0], fwd.At(0, 0));
}

TEST(MlpTest, FillerFedInferIntoMatchesForwardBitwise) {
  // The Q network's shape, at a row count that leaves a partial 256-row
  // block. The filler writes rows straight from the source batch, like the
  // agent's feature-row assembly does.
  Rng rng(7);
  Mlp net({12, 64, 32, 1},
          {Activation::kRelu, Activation::kRelu, Activation::kIdentity},
          &rng);
  Matrix batch(1000, 12);
  batch.FillUniform(&rng, -1.0, 1.0);
  const Matrix expect = net.Forward(batch);
  const Mlp::RowFiller fill = [&batch](size_t r0, size_t r1, Matrix* block) {
    for (size_t r = r0; r < r1; ++r) {
      for (size_t c = 0; c < batch.cols(); ++c) {
        block->At(r - r0, c) = batch.At(r, c);
      }
    }
  };
  for (size_t lanes : {1, 4}) {
    ThreadPool pool(lanes);
    Matrix filled, copied;
    net.InferInto(batch.rows(), fill, &pool, &filled);
    net.InferInto(batch, &pool, &copied);
    EXPECT_TRUE(testing::BitEqual(filled, expect)) << "lanes=" << lanes;
    EXPECT_TRUE(testing::BitEqual(copied, expect)) << "lanes=" << lanes;
  }
  Matrix serial;
  net.InferInto(batch.rows(), fill, nullptr, &serial);
  EXPECT_TRUE(testing::BitEqual(serial, expect));

  // Resuming at layer 1, as the factorized Q head does: the filler writes
  // layer 0's post-activation output, here from a one-layer network that
  // holds the first layer's parameters.
  Mlp first({12, 64}, {Activation::kRelu}, &rng);
  const std::vector<double> flat = net.FlatParameters();
  first.SetFlatParameters(std::vector<double>(
      flat.begin(),
      flat.begin() + static_cast<std::ptrdiff_t>(first.ParameterCount())));
  const Matrix hidden = first.Forward(batch);
  const Mlp::RowFiller fill_hidden = [&hidden](size_t r0, size_t r1,
                                               Matrix* block) {
    for (size_t r = r0; r < r1; ++r) {
      for (size_t c = 0; c < hidden.cols(); ++c) {
        block->At(r - r0, c) = hidden.At(r, c);
      }
    }
  };
  for (size_t lanes : {1, 4}) {
    ThreadPool pool(lanes);
    Matrix resumed;
    net.InferInto(hidden.rows(), fill_hidden, &pool, &resumed,
                  /*first_layer=*/1);
    EXPECT_TRUE(testing::BitEqual(resumed, expect)) << "lanes=" << lanes;
  }
}

TEST(MlpTest, ParameterCountMatchesViews) {
  Mlp net = SmallNet(4);
  size_t total = 0;
  for (const ParamView& v : net.ParamViews()) total += v.size;
  EXPECT_EQ(total, net.ParameterCount());
  EXPECT_EQ(net.ParameterCount(), 3u * 4 + 4 + 4 * 2 + 2);
}

TEST(MlpTest, FlatParameterRoundTrip) {
  Mlp a = SmallNet(5);
  Mlp b = SmallNet(6);
  b.SetFlatParameters(a.FlatParameters());
  EXPECT_EQ(a.FlatParameters(), b.FlatParameters());
  Matrix x = Matrix::FromRows({{0.3, 0.3, 0.3}});
  EXPECT_DOUBLE_EQ(a.Infer(x).At(0, 0), b.Infer(x).At(0, 0));
}

TEST(MlpTest, BlendFromInterpolates) {
  Mlp a = SmallNet(7);
  Mlp b = SmallNet(8);
  std::vector<double> pa = a.FlatParameters();
  std::vector<double> pb = b.FlatParameters();
  a.BlendFrom(b, 0.25);
  std::vector<double> blended = a.FlatParameters();
  for (size_t i = 0; i < blended.size(); ++i) {
    EXPECT_NEAR(blended[i], 0.75 * pa[i] + 0.25 * pb[i], 1e-12);
  }
  a.BlendFrom(b, 1.0);
  EXPECT_EQ(a.FlatParameters(), pb);
}

// Full backprop gradient check against central finite differences.
class MlpGradientCheckTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MlpGradientCheckTest, BackwardMatchesFiniteDifference) {
  Rng rng(GetParam());
  Mlp net({2, 3, 2}, {Activation::kSigmoid, Activation::kIdentity}, &rng);
  Matrix x(4, 2);
  Matrix target(4, 2);
  x.FillGaussian(&rng, 0.0, 1.0);
  target.FillGaussian(&rng, 0.0, 1.0);

  auto loss_at = [&](Mlp* n) {
    Matrix grad;
    return MseLoss(n->Infer(x), target, &grad);
  };

  net.ZeroGrad();
  Matrix pred = net.Forward(x);
  Matrix grad;
  MseLoss(pred, target, &grad);
  net.Backward(grad);

  const double kEps = 1e-6;
  std::vector<double> flat = net.FlatParameters();
  std::vector<ParamView> views = net.ParamViews();
  size_t offset = 0;
  // Matches FlatParameters ordering: weight then bias per layer.
  for (const ParamView& view : views) {
    for (size_t j = 0; j < view.size; j += 5) {  // Sample every 5th param.
      std::vector<double> bumped = flat;
      bumped[offset + j] += kEps;
      Mlp plus = net;
      plus.SetFlatParameters(bumped);
      bumped[offset + j] -= 2.0 * kEps;
      Mlp minus = net;
      minus.SetFlatParameters(bumped);
      double numeric = (loss_at(&plus) - loss_at(&minus)) / (2.0 * kEps);
      EXPECT_NEAR(view.grad[j], numeric, 1e-5)
          << "param " << offset + j;
    }
    offset += view.size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpGradientCheckTest,
                         ::testing::Values(11, 22, 33));

TEST(MlpTest, BackwardAccumulatesUntilZeroGrad) {
  Mlp net = SmallNet(9);
  Matrix x = Matrix::FromRows({{1.0, 1.0, 1.0}});
  Matrix t = Matrix::FromRows({{0.0, 0.0}});
  Matrix grad;
  net.Forward(x);
  MseLoss(net.Forward(x), t, &grad);
  net.Backward(grad);
  double g1 = net.ParamViews()[0].grad[0];
  net.Backward(grad);
  EXPECT_NEAR(net.ParamViews()[0].grad[0], 2.0 * g1, 1e-12);
  net.ZeroGrad();
  EXPECT_DOUBLE_EQ(net.ParamViews()[0].grad[0], 0.0);
}

TEST(MlpDeathTest, WrongInputWidthAborts) {
  Mlp net = SmallNet(10);
  Matrix bad(1, 5);
  EXPECT_DEATH(net.Forward(bad), "");
}

}  // namespace
}  // namespace crowdrl::nn
