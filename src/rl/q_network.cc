#include "rl/q_network.h"

#include <algorithm>
#include <utility>

#include "math/gemm.h"
#include "nn/loss.h"
#include "rl/state.h"
#include "util/logging.h"

namespace crowdrl::rl {

namespace {

nn::Mlp BuildNet(const QNetworkOptions& options, Rng* rng) {
  std::vector<size_t> sizes;
  sizes.push_back(options.feature_dim);
  for (size_t h : options.hidden_sizes) sizes.push_back(h);
  sizes.push_back(1);
  std::vector<nn::Activation> acts(sizes.size() - 1, nn::Activation::kRelu);
  acts.back() = nn::Activation::kIdentity;
  return nn::Mlp(sizes, acts, rng);
}

// Column 0 of a forward's output: one Q value per row.
std::vector<double> QColumn(const Matrix& out) {
  std::vector<double> q(out.rows());
  for (size_t r = 0; r < out.rows(); ++r) q[r] = out.At(r, 0);
  return q;
}

}  // namespace

QNetwork::QNetwork(QNetworkOptions options)
    : options_(options),
      online_([&options] {
        Rng rng(options.seed);
        return BuildNet(options, &rng);
      }()),
      target_(online_),
      optimizer_(options.learning_rate) {
  CROWDRL_CHECK(options.feature_dim > 0);
  CROWDRL_CHECK(options.threads >= 1);
  if (options.threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options.threads);
  }
  CROWDRL_CHECK(options.gamma > 0.0 && options.gamma <= 1.0);
  CROWDRL_CHECK(options.soft_tau >= 0.0 && options.soft_tau <= 1.0);
  CROWDRL_CHECK(options.soft_tau > 0.0 || options.target_sync_period > 0);
}

double QNetwork::Predict(const std::vector<double>& features) const {
  CROWDRL_DCHECK(features.size() == options_.feature_dim);
  return online_.Infer(features)[0];
}

std::vector<double> QNetwork::PredictBatch(const Matrix& features) const {
  // Loop-fused block inference: the layer-by-layer Infer materializes
  // batch x h1 activations, which is memory-bandwidth-bound at scoring
  // batch sizes and defeats row-threading. Bit-identical (see InferInto).
  online_.InferInto(features, pool_.get(), &predict_out_);
  return QColumn(predict_out_);
}

std::vector<double> QNetwork::TargetPredictBatch(
    const Matrix& features) const {
  target_.InferInto(features, pool_.get(), &predict_out_);
  return QColumn(predict_out_);
}

double QNetwork::TrainBatch(const std::vector<const Transition*>& batch) {
  CROWDRL_CHECK(!batch.empty());
  Matrix x(batch.size(), options_.feature_dim);
  Matrix y(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Transition& t = *batch[i];
    CROWDRL_CHECK(t.features.size() == options_.feature_dim);
    x.SetRow(i, t.features);
    double target = t.reward;
    if (!t.terminal) target += options_.gamma * t.next_max_q;
    y.At(i, 0) = target;
  }
  const Matrix& pred = online_.Forward(x, pool_.get());
  Matrix grad;
  double loss = nn::MseLoss(pred, y, &grad);
  online_.Backward(grad, /*input_grad=*/nullptr, pool_.get());
  optimizer_.Step(&online_);
  ++train_steps_;
  SyncTargetIfDue();
  return loss;
}

void QNetwork::SyncTargetIfDue() {
  if (options_.soft_tau > 0.0) {
    target_.BlendFrom(online_, options_.soft_tau);
    return;
  }
  if (train_steps_ % options_.target_sync_period == 0) target_ = online_;
}

void QNetwork::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  online_.SaveState(writer);
  target_.SaveState(writer);
  optimizer_.SaveState(writer);
  writer->WriteSize(train_steps_);
}

Status QNetwork::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  CROWDRL_RETURN_IF_ERROR(online_.LoadState(reader));
  CROWDRL_RETURN_IF_ERROR(target_.LoadState(reader));
  CROWDRL_RETURN_IF_ERROR(optimizer_.LoadState(reader));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&train_steps_));
  return Status::Ok();
}

std::vector<double> QNetwork::FlatParameters() const {
  return online_.FlatParameters();
}

void QNetwork::SetFlatParameters(const std::vector<double>& params) {
  online_.SetFlatParameters(params);
  target_ = online_;
}

std::vector<double> QNetwork::PredictBatchFactorized(
    const FeatureBlocks& blocks, const std::vector<Action>& pairs,
    bool use_target) const {
  using F = StateFeaturizer;
  CROWDRL_CHECK(options_.feature_dim == F::kFeatureDim)
      << "the factorized head assumes the StateFeaturizer feature layout";
  CROWDRL_CHECK(blocks.object_blocks != nullptr &&
                blocks.annotator_blocks != nullptr &&
                blocks.global_block != nullptr);
  const std::vector<bool>* mask = blocks.feature_mask;
  CROWDRL_CHECK(mask == nullptr || mask->empty() ||
                mask->size() == F::kFeatureDim);
  const auto on = [mask](size_t column) {
    return mask == nullptr || mask->empty() || (*mask)[column];
  };
  const nn::Mlp& net = use_target ? target_ : online_;
  const Matrix& w = net.layer_weight(0);
  const std::vector<double>& bias = net.layer_bias(0);
  const size_t h1 = w.rows();
  const double* g = blocks.global_block;

  // Layer 0 sliced into its object and annotator columns, and the global
  // partial W_g * g + b shared by every pair this call (global columns
  // {0, 10, 11}, see StateFeaturizer). Masked-off columns are zeroed: a
  // masked dense row holds zeros there, so these weights never see a
  // nonzero input and must not multiply the blocks' real values. W_o is
  // written transposed, as the row blocks' products take it packed.
  Matrix w_object_t(F::kObjectBlockDim, h1);
  Matrix w_annotator(h1, F::kAnnotatorBlockDim);
  std::vector<double> global_partial(h1);
  for (size_t h = 0; h < h1; ++h) {
    const double* w_row = w.Row(h);
    const auto weight = [&](size_t column) {
      return on(column) ? w_row[column] : 0.0;
    };
    for (size_t t = 0; t < F::kObjectBlockDim; ++t) {
      w_object_t.At(t, h) = weight(F::kObjectBlockOffset + t);
    }
    for (size_t t = 0; t < F::kAnnotatorBlockDim; ++t) {
      w_annotator.At(h, t) = weight(F::kAnnotatorBlockOffset + t);
    }
    global_partial[h] = weight(0) * g[0] + weight(10) * g[1] +
                        weight(11) * g[2] + bias[h];
  }
  Matrix annotator_partials;  // m x h1.
  gemm::MatMulNTInto(*blocks.annotator_blocks, w_annotator,
                     &annotator_partials, pool_.get());

  // Each row block computes the object partials of its own object runs
  // (one object-block row per run, through the same kernel, so every
  // partial has the bits a whole-grid product would give it), assembles
  // its layer-0 activations from them, and runs the remaining layers
  // before the next block starts: nothing batch- or grid-sized is ever
  // materialized. Every per-element accumulation order matches the
  // unblocked formulation, so results are bit-identical at any thread
  // count. The output is a fresh pairs x 1 matrix whose storage becomes
  // the result: these batches span the whole candidate grid, and a
  // persistent buffer would keep one grid-sized copy resident.
  const nn::Activation act0 = net.layer_activation(0);
  Matrix q;
  net.InferInto(
      pairs.size(),
      [&](size_t p0, size_t p1, Matrix* acts) {
        // Per-lane scratch, reshaped rather than reallocated per block.
        thread_local Matrix run_blocks;  // runs x kObjectBlockDim.
        thread_local Matrix run_sums;    // runs x h1: g + O_i per run.
        const auto starts_run = [&](size_t p) {
          return p == p0 || pairs[p].object != pairs[p - 1].object;
        };
        size_t runs = 0;
        for (size_t p = p0; p < p1; ++p) runs += starts_run(p) ? 1 : 0;
        run_blocks.Reshape(runs, F::kObjectBlockDim);
        size_t run = 0;
        for (size_t p = p0; p < p1; ++p) {
          if (!starts_run(p)) continue;
          const double* block = blocks.object_blocks->Row(
              static_cast<size_t>(pairs[p].object));
          std::copy(block, block + F::kObjectBlockDim,
                    run_blocks.Row(run++));
        }
        // g + O_i once per run (candidate lists arrive object-major; any
        // order is correct): the object partials' product takes the global
        // partial as its epilogue's bias, one add per element after the
        // sum, which is the add g + O_i. Each pair's row is then
        // (g + O_i) + A_j, activated, in one pass of the tiered row
        // kernel: the association of the unfused g + O_i + A_j.
        run_sums.Reshape(runs, h1);
        gemm::MatMulNTPackedInto(run_blocks, w_object_t, &run_sums, nullptr,
                                 {global_partial.data(), false});
        const double* object_sum = nullptr;
        run = 0;
        for (size_t p = p0; p < p1; ++p) {
          if (starts_run(p)) object_sum = run_sums.Row(run++);
          nn::AddActivate(act0, object_sum,
                          annotator_partials.Row(
                              static_cast<size_t>(pairs[p].annotator)),
                          h1, acts->Row(p - p0));
        }
      },
      pool_.get(), &q, /*first_layer=*/1);
  return std::move(q.data());
}

}  // namespace crowdrl::rl
