#ifndef CROWDRL_TESTS_TESTING_REFERENCE_FILLS_H_
#define CROWDRL_TESTS_TESTING_REFERENCE_FILLS_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "nn/activation.h"
#include "nn/mlp.h"
#include "rl/action.h"
#include "rl/q_network.h"
#include "rl/state.h"
#include "tests/testing/reference_gemm.h"
#include "util/random.h"

namespace crowdrl::testing {

/// Verbatim copies of the two-pass (unfused) fills that the MLP's bias +
/// activation epilogue and the factorized Q head's layer-0 fill now run
/// row by row through nn::AddActivate, kept as the bitwise reference for
/// them: write every sum of the block first, then run the activation over
/// the block. Do not fuse or speed these up; their only job is to
/// preserve the historical order of operations.

/// The activation pass, element by element, as nn::ApplyActivationRows
/// ran it before any fusion.
inline void ReferenceActivationRows(nn::Activation act, Matrix* values,
                                    size_t row_begin, size_t row_end) {
  for (size_t r = row_begin; r < row_end; ++r) {
    double* row = values->Row(r);
    for (size_t c = 0; c < values->cols(); ++c) {
      double& v = row[c];
      switch (act) {
        case nn::Activation::kIdentity:
          break;
        case nn::Activation::kRelu:
          v = v > 0.0 ? v : 0.0;
          break;
        case nn::Activation::kSigmoid:
          v = 1.0 / (1.0 + std::exp(-v));
          break;
        case nn::Activation::kTanh:
          v = std::tanh(v);
          break;
      }
    }
  }
}

/// The unfused MLP layer tail: bias add over the block, then activation.
inline void ReferenceBiasActivation(const std::vector<double>& bias,
                                    nn::Activation act, Matrix* out,
                                    size_t row_begin, size_t row_end) {
  for (size_t r = row_begin; r < row_end; ++r) {
    double* row = out->Row(r);
    for (size_t c = 0; c < out->cols(); ++c) row[c] += bias[c];
  }
  ReferenceActivationRows(act, out, row_begin, row_end);
}

/// The unfused factorized layer-0 fill: g + O_i + A_j per element (left
/// to right, as the sum was written), then the activation pass.
inline void ReferenceFactorizedFill(const std::vector<double>& global_partial,
                                    const Matrix& object_partials,
                                    const Matrix& annotator_partials,
                                    nn::Activation act,
                                    const std::vector<rl::Action>& pairs,
                                    Matrix* acts) {
  *acts = Matrix(pairs.size(), global_partial.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    const double* object_row =
        object_partials.Row(static_cast<size_t>(pairs[p].object));
    const double* annotator_row =
        annotator_partials.Row(static_cast<size_t>(pairs[p].annotator));
    double* acts_row = acts->Row(p);
    for (size_t h = 0; h < global_partial.size(); ++h) {
      acts_row[h] = global_partial[h] + object_row[h] + annotator_row[h];
    }
  }
  ReferenceActivationRows(act, acts, 0, pairs.size());
}

/// Layers [first_layer, num_layers) of `net` on `input`, unfused: each as
/// ReferenceMatMul against the transposed weight, then the bias add over
/// the whole block and the activation pass.
inline Matrix ReferenceLayers(const nn::Mlp& net, Matrix input,
                              size_t first_layer) {
  for (size_t l = first_layer; l < net.num_layers(); ++l) {
    Matrix next =
        ReferenceMatMul(input, ReferenceTransposed(net.layer_weight(l)));
    ReferenceBiasActivation(net.layer_bias(l), net.layer_activation(l), &next,
                            0, next.rows());
    input = std::move(next);
  }
  return input;
}

/// QNetwork::PredictBatchFactorized from first principles for `net` (the
/// online or the target network): the object / annotator partials as
/// naive ascending dot products with the first-layer weight's block
/// columns, the global partial with its bias, the unfused fill, then every
/// later layer as ReferenceMatMul plus the unfused tail. Bit-identical to
/// the production path on finite data (the GEMM accumulation-order
/// guarantee of DESIGN.md §8).
inline std::vector<double> ReferenceFactorizedQ(
    const nn::Mlp& net, const rl::FeatureBlocks& blocks,
    const std::vector<rl::Action>& pairs) {
  using rl::StateFeaturizer;
  const Matrix& w = net.layer_weight(0);
  const std::vector<double>& bias = net.layer_bias(0);
  const size_t h1 = w.rows();
  const double* g = blocks.global_block;
  std::vector<double> global_partial(h1);
  Matrix object_partials(blocks.object_blocks->rows(), h1);
  Matrix annotator_partials(blocks.annotator_blocks->rows(), h1);
  for (size_t h = 0; h < h1; ++h) {
    const double* w_row = w.Row(h);
    global_partial[h] =
        w_row[0] * g[0] + w_row[10] * g[1] + w_row[11] * g[2] + bias[h];
    for (size_t i = 0; i < object_partials.rows(); ++i) {
      const double* block = blocks.object_blocks->Row(i);
      double sum = 0.0;
      for (size_t t = 0; t < StateFeaturizer::kObjectBlockDim; ++t) {
        sum += block[t] * w_row[StateFeaturizer::kObjectBlockOffset + t];
      }
      object_partials.At(i, h) = sum;
    }
    for (size_t j = 0; j < annotator_partials.rows(); ++j) {
      const double* block = blocks.annotator_blocks->Row(j);
      double sum = 0.0;
      for (size_t t = 0; t < StateFeaturizer::kAnnotatorBlockDim; ++t) {
        sum += block[t] * w_row[StateFeaturizer::kAnnotatorBlockOffset + t];
      }
      annotator_partials.At(j, h) = sum;
    }
  }
  Matrix layer0;
  ReferenceFactorizedFill(global_partial, object_partials, annotator_partials,
                          net.layer_activation(0), pairs, &layer0);
  const Matrix out = ReferenceLayers(net, std::move(layer0), 1);
  std::vector<double> q(out.rows());
  for (size_t r = 0; r < out.rows(); ++r) q[r] = out.At(r, 0);
  return q;
}

/// The online network of a QNetwork built with the default hidden sizes,
/// as a standalone nn::Mlp (QNetwork exposes only its flat parameters),
/// so the references above can evaluate it.
inline nn::Mlp OnlineMlp(const rl::QNetwork& network) {
  std::vector<size_t> sizes = {rl::StateFeaturizer::kFeatureDim};
  for (size_t h : rl::QNetworkOptions{}.hidden_sizes) sizes.push_back(h);
  sizes.push_back(1);
  std::vector<nn::Activation> acts(sizes.size() - 1, nn::Activation::kRelu);
  acts.back() = nn::Activation::kIdentity;
  Rng rng(1);
  nn::Mlp net(sizes, acts, &rng);
  net.SetFlatParameters(network.FlatParameters());
  return net;
}

/// `net` with the layer-0 weight columns of masked-off features zeroed:
/// what a feature-masked agent's dense rows (zeros in those columns)
/// leave of the first layer.
inline nn::Mlp WithMaskedInputs(const nn::Mlp& net,
                                const std::vector<bool>& mask) {
  std::vector<double> flat = net.FlatParameters();  // Layer-0 W first.
  const size_t in = net.input_size();
  for (size_t h = 0; h < net.layer_weight(0).rows(); ++h) {
    for (size_t c = 0; c < in; ++c) {
      if (!mask[c]) flat[h * in + c] = 0.0;
    }
  }
  nn::Mlp masked = net;
  masked.SetFlatParameters(flat);
  return masked;
}

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_REFERENCE_FILLS_H_
