// Bit-identity tests pinning Mlp::Forward/Infer/Backward to the pre-kernel
// (seed) implementation, which is embedded verbatim below. The GEMM layer is
// only allowed to reorganize work, never arithmetic, so every activation,
// weight gradient, bias gradient, and input gradient must be byte-equal —
// this is what keeps checkpoint-resume trajectories bit-exact across the
// kernel rewrite.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "math/matrix.h"
#include "nn/mlp.h"
#include "tests/testing/reference_gemm.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace crowdrl::nn {
namespace {

using ::crowdrl::testing::BitEqual;
using ::crowdrl::testing::ReferenceMatMul;
using ::crowdrl::testing::ReferenceTransposed;

// --- Seed MLP, transcribed from the pre-kernel nn/mlp.cc ------------------

struct SeedLayer {
  Matrix weight;  // out x in
  std::vector<double> bias;
  Matrix weight_grad;
  std::vector<double> bias_grad;
  Activation activation;
  Matrix input;
  Matrix output;
};

void SeedApplyActivation(Activation act, Matrix* values) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (double& v : values->data()) v = v > 0.0 ? v : 0.0;
      return;
    case Activation::kSigmoid:
      for (double& v : values->data()) v = 1.0 / (1.0 + std::exp(-v));
      return;
    case Activation::kTanh:
      for (double& v : values->data()) v = std::tanh(v);
      return;
  }
}

void SeedApplyActivationGrad(Activation act, const Matrix& post,
                             Matrix* grad) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        if (post.data()[i] <= 0.0) grad->data()[i] = 0.0;
      }
      return;
    case Activation::kSigmoid:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        double y = post.data()[i];
        grad->data()[i] *= y * (1.0 - y);
      }
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        double y = post.data()[i];
        grad->data()[i] *= 1.0 - y * y;
      }
      return;
  }
}

struct SeedMlp {
  std::vector<SeedLayer> layers;

  // Clones parameters from an Mlp built with the same architecture, using
  // the documented FlatParameters layout (per layer: row-major weight,
  // then bias).
  SeedMlp(const Mlp& net, const std::vector<size_t>& sizes,
          const std::vector<Activation>& acts) {
    std::vector<double> flat = net.FlatParameters();
    size_t offset = 0;
    layers.resize(sizes.size() - 1);
    for (size_t l = 0; l < layers.size(); ++l) {
      SeedLayer& layer = layers[l];
      size_t in = sizes[l];
      size_t out = sizes[l + 1];
      layer.weight = Matrix(out, in);
      for (double& w : layer.weight.data()) w = flat[offset++];
      layer.bias.assign(flat.begin() + offset, flat.begin() + offset + out);
      offset += out;
      layer.weight_grad = Matrix(out, in);
      layer.bias_grad.assign(out, 0.0);
      layer.activation = acts[l];
    }
  }

  Matrix Forward(const Matrix& batch) {
    Matrix current = batch;
    for (SeedLayer& layer : layers) {
      layer.input = current;
      Matrix pre = ReferenceMatMul(current, ReferenceTransposed(layer.weight));
      for (size_t r = 0; r < pre.rows(); ++r) {
        double* row = pre.Row(r);
        for (size_t c = 0; c < pre.cols(); ++c) row[c] += layer.bias[c];
      }
      SeedApplyActivation(layer.activation, &pre);
      layer.output = pre;
      current = std::move(pre);
    }
    return current;
  }

  Matrix Backward(const Matrix& grad_output) {
    Matrix grad = grad_output;
    for (size_t l = layers.size(); l > 0; --l) {
      SeedLayer& layer = layers[l - 1];
      SeedApplyActivationGrad(layer.activation, layer.output, &grad);
      Matrix dw = ReferenceMatMul(ReferenceTransposed(grad), layer.input);
      layer.weight_grad.Add(dw);
      for (size_t r = 0; r < grad.rows(); ++r) {
        const double* row = grad.Row(r);
        for (size_t c = 0; c < grad.cols(); ++c) layer.bias_grad[c] += row[c];
      }
      grad = ReferenceMatMul(grad, layer.weight);
    }
    return grad;
  }
};

// --------------------------------------------------------------------------

bool BitEqualVec(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Arch {
  std::vector<size_t> sizes;
  std::vector<Activation> acts;
};

std::vector<Arch> TestArchitectures() {
  return {
      // Every activation in one net, widths off the 4-row unroll.
      {{5, 7, 6, 3},
       {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}},
      // The paper's shape family: ReLU hidden, identity logits. Widths
      // past the unroll and grain boundaries matter for the kernels.
      {{90, 67, 1}, {Activation::kRelu, Activation::kIdentity}},
      // Single layer.
      {{4, 2}, {Activation::kIdentity}},
  };
}

TEST(MlpGoldenTest, ForwardBackwardBitIdenticalToSeedImplementation) {
  Rng data_rng(101);
  for (const Arch& arch : TestArchitectures()) {
    Rng rng(7);
    Mlp net(arch.sizes, arch.acts, &rng);
    SeedMlp seed(net, arch.sizes, arch.acts);
    // Batch sizes crossing the 4-row unroll and the 64-row chunk grain.
    for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{65}}) {
      Matrix x(batch_rows, arch.sizes.front());
      x.FillUniform(&data_rng, -2.0, 2.0);
      Matrix got = net.Forward(x);
      Matrix want = seed.Forward(x);
      ASSERT_TRUE(BitEqual(got, want)) << "forward batch=" << batch_rows;

      Matrix grad(batch_rows, arch.sizes.back());
      grad.FillUniform(&data_rng, -1.0, 1.0);
      Matrix input_grad;
      net.Backward(grad, &input_grad);
      Matrix want_input_grad = seed.Backward(grad);
      ASSERT_TRUE(BitEqual(input_grad, want_input_grad))
          << "input grad batch=" << batch_rows;

      std::vector<ParamView> views = net.ParamViews();
      for (size_t l = 0; l < seed.layers.size(); ++l) {
        const SeedLayer& sl = seed.layers[l];
        EXPECT_EQ(std::memcmp(views[2 * l].grad, sl.weight_grad.data().data(),
                              sl.weight_grad.size() * sizeof(double)),
                  0)
            << "weight grad layer " << l << " batch=" << batch_rows;
        EXPECT_TRUE(BitEqualVec(
            std::vector<double>(views[2 * l + 1].grad,
                                views[2 * l + 1].grad + sl.bias_grad.size()),
            sl.bias_grad))
            << "bias grad layer " << l << " batch=" << batch_rows;
      }
      // Gradients accumulate across calls in both implementations; clear
      // between batch sizes so each comparison stands alone.
      net.ZeroGrad();
      for (SeedLayer& sl : seed.layers) {
        sl.weight_grad.Fill(0.0);
        for (double& g : sl.bias_grad) g = 0.0;
      }
    }
  }
}

TEST(MlpGoldenTest, InferBitIdenticalToForwardAndSeed) {
  Rng rng(8);
  Arch arch = TestArchitectures()[0];
  Mlp net(arch.sizes, arch.acts, &rng);
  SeedMlp seed(net, arch.sizes, arch.acts);
  Rng data_rng(9);
  Matrix x(33, arch.sizes.front());
  x.FillUniform(&data_rng, -1.0, 1.0);
  Matrix want = seed.Forward(x);
  EXPECT_TRUE(BitEqual(net.Infer(x), want));
  EXPECT_TRUE(BitEqual(net.Forward(x), want));
  // Single-sample overload agrees row-wise.
  std::vector<double> row0 = net.Infer(x.RowVector(0));
  EXPECT_TRUE(BitEqualVec(row0, want.RowVector(0)));
}

// The Q network's shape through the blocked forward (Mlp::InferInto, one
// lane), against the seed forward: 4,100 rows are sixteen full 256-row
// blocks and a ragged one. This is the `q_infer_into` row of
// bench/micro_components' kernel report as a test.
TEST(MlpGoldenTest, InferIntoBitIdenticalToSeedAtTheQNetworkShape) {
  const std::vector<size_t> sizes = {12, 64, 32, 1};
  const std::vector<Activation> acts = {Activation::kRelu, Activation::kRelu,
                                        Activation::kIdentity};
  Rng rng(12);
  Mlp net(sizes, acts, &rng);
  SeedMlp seed(net, sizes, acts);
  Matrix x(4100, sizes.front());
  x.FillUniform(&rng, -1.0, 1.0);
  Matrix got;
  net.InferInto(x, nullptr, &got);
  EXPECT_TRUE(BitEqual(got, seed.Forward(x)));
}

TEST(MlpGoldenTest, ThreadedForwardBackwardBitIdenticalToSerial) {
  Rng rng(10);
  Arch arch = TestArchitectures()[1];
  Mlp serial_net(arch.sizes, arch.acts, &rng);
  Mlp threaded_net = serial_net;
  ThreadPool pool(3);
  Rng data_rng(11);
  Matrix x(130, arch.sizes.front());
  x.FillUniform(&data_rng, -1.0, 1.0);
  Matrix grad(130, arch.sizes.back());
  grad.FillUniform(&data_rng, -1.0, 1.0);

  Matrix serial_out = serial_net.Forward(x);
  Matrix threaded_out = threaded_net.Forward(x, &pool);
  EXPECT_TRUE(BitEqual(serial_out, threaded_out));

  Matrix serial_dx, threaded_dx;
  serial_net.Backward(grad, &serial_dx);
  threaded_net.Backward(grad, &threaded_dx, &pool);
  EXPECT_TRUE(BitEqual(serial_dx, threaded_dx));
  EXPECT_EQ(serial_net.FlatParameters(), threaded_net.FlatParameters());

  std::vector<ParamView> sv = serial_net.ParamViews();
  std::vector<ParamView> tv = threaded_net.ParamViews();
  for (size_t i = 0; i < sv.size(); ++i) {
    EXPECT_EQ(
        std::memcmp(sv[i].grad, tv[i].grad, sv[i].size * sizeof(double)), 0)
        << "grad block " << i;
  }
}

TEST(MlpGoldenTest, RepeatedBackwardAccumulatesLikeSeed) {
  Rng rng(12);
  Arch arch = TestArchitectures()[0];
  Mlp net(arch.sizes, arch.acts, &rng);
  SeedMlp seed(net, arch.sizes, arch.acts);
  Rng data_rng(13);
  Matrix x(6, arch.sizes.front());
  x.FillUniform(&data_rng, -1.0, 1.0);
  Matrix grad(6, arch.sizes.back());
  grad.FillUniform(&data_rng, -1.0, 1.0);
  net.Forward(x);
  seed.Forward(x);
  net.Backward(grad);
  net.Backward(grad);
  seed.Backward(grad);
  seed.Backward(grad);
  std::vector<ParamView> views = net.ParamViews();
  for (size_t l = 0; l < seed.layers.size(); ++l) {
    EXPECT_EQ(std::memcmp(views[2 * l].grad,
                          seed.layers[l].weight_grad.data().data(),
                          seed.layers[l].weight_grad.size() * sizeof(double)),
              0)
        << "layer " << l;
  }
}

}  // namespace
}  // namespace crowdrl::nn
