#include "rl/q_network.h"

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

std::vector<double> QNetwork::PredictBatch(
    size_t rows, const nn::Mlp::RowFiller& fill) const {
  online_.InferInto(rows, fill, pool_.get(), &predict_out_);
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
  ++params_version_;
  ++train_steps_;
  SyncTargetIfDue();
  return loss;
}

void QNetwork::SyncTargetIfDue() {
  if (options_.soft_tau > 0.0) {
    target_.BlendFrom(online_, options_.soft_tau);
    ++target_params_version_;
    return;
  }
  if (train_steps_ % options_.target_sync_period == 0) {
    target_ = online_;
    ++target_params_version_;
  }
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
  ++params_version_;
  ++target_params_version_;
  return Status::Ok();
}

std::vector<double> QNetwork::FlatParameters() const {
  return online_.FlatParameters();
}

void QNetwork::SetFlatParameters(const std::vector<double>& params) {
  online_.SetFlatParameters(params);
  target_ = online_;
  ++params_version_;
  ++target_params_version_;
}

void QNetwork::RefreshFactorizedCache(const nn::Mlp& net,
                                      const FeatureBlocks& blocks,
                                      size_t params_version,
                                      FactorizedCache* cache) {
  const Matrix& w = net.layer_weight(0);
  size_t h1 = w.rows();
  bool params_stale = !cache->valid || cache->params_version != params_version;
  if (params_stale) {
    // Re-slice the first-layer weight into its object / annotator columns.
    cache->w_object = Matrix(h1, StateFeaturizer::kObjectBlockDim);
    cache->w_annotator = Matrix(h1, StateFeaturizer::kAnnotatorBlockDim);
    for (size_t h = 0; h < h1; ++h) {
      const double* w_row = w.Row(h);
      double* wo_row = cache->w_object.Row(h);
      for (size_t t = 0; t < StateFeaturizer::kObjectBlockDim; ++t) {
        wo_row[t] = w_row[StateFeaturizer::kObjectBlockOffset + t];
      }
      double* wa_row = cache->w_annotator.Row(h);
      for (size_t t = 0; t < StateFeaturizer::kAnnotatorBlockDim; ++t) {
        wa_row[t] = w_row[StateFeaturizer::kAnnotatorBlockOffset + t];
      }
    }
  }
  if (params_stale || cache->object_version != blocks.object_version) {
    gemm::MatMulNTInto(*blocks.object_blocks, cache->w_object,
                       &cache->object_partials, pool_.get());
    cache->object_version = blocks.object_version;
  }
  if (params_stale || cache->annotator_version != blocks.annotator_version) {
    gemm::MatMulNTInto(*blocks.annotator_blocks, cache->w_annotator,
                       &cache->annotator_partials, pool_.get());
    cache->annotator_version = blocks.annotator_version;
  }
  cache->params_version = params_version;
  cache->valid = true;
}

std::vector<double> QNetwork::PredictBatchFactorized(
    const FeatureBlocks& blocks, const std::vector<Action>& pairs,
    bool use_target) {
  CROWDRL_CHECK(options_.feature_dim == StateFeaturizer::kFeatureDim)
      << "the factorized head assumes the StateFeaturizer feature layout";
  CROWDRL_CHECK(blocks.object_blocks != nullptr &&
                blocks.annotator_blocks != nullptr &&
                blocks.global_block != nullptr);
  const nn::Mlp& net = use_target ? target_ : online_;
  FactorizedCache& cache =
      use_target ? factorized_target_ : factorized_online_;
  size_t params_version =
      use_target ? target_params_version_ : params_version_;
  RefreshFactorizedCache(net, blocks, params_version, &cache);

  const Matrix& w = net.layer_weight(0);
  const std::vector<double>& bias = net.layer_bias(0);
  size_t h1 = w.rows();
  const double* g = blocks.global_block;

  // Global partial: W_g * g + b, shared by every pair this call. The
  // global feature columns are {0, 10, 11} (see StateFeaturizer).
  std::vector<double> global_partial(h1);
  for (size_t h = 0; h < h1; ++h) {
    const double* w_row = w.Row(h);
    global_partial[h] =
        w_row[0] * g[0] + w_row[10] * g[1] + w_row[11] * g[2] + bias[h];
  }

  // Each row block's layer-0 activations are assembled from the cached
  // partials inside the blocked forward, which runs the remaining layers
  // before the next block starts, so no batch-sized activation matrix is
  // ever materialized. Every per-element accumulation order matches the
  // unblocked formulation, so results are bit-identical at any thread
  // count. The output is a fresh pairs x 1 matrix whose storage becomes
  // the result: these batches span the whole candidate grid, and a
  // persistent buffer would keep one grid-sized copy resident.
  const nn::Activation act0 = net.layer_activation(0);
  Matrix q;
  net.InferInto(
      pairs.size(),
      [&](size_t p0, size_t p1, Matrix* acts) {
        // g + O_i is computed once per run of pairs on one object
        // (candidate lists arrive object-major; any order is correct) and
        // each row is summed and activated in one pass. The sum keeps the
        // association (g + O_i) + A_j, so rows are bit-identical to
        // filling the block and then activating it.
        std::vector<double> object_sum(h1);
        int run_object = -1;
        for (size_t p = p0; p < p1; ++p) {
          if (pairs[p].object != run_object) {
            run_object = pairs[p].object;
            const double* object_row =
                cache.object_partials.Row(static_cast<size_t>(run_object));
            for (size_t h = 0; h < h1; ++h) {
              object_sum[h] = global_partial[h] + object_row[h];
            }
          }
          nn::AddActivate(act0, object_sum.data(),
                          cache.annotator_partials.Row(
                              static_cast<size_t>(pairs[p].annotator)),
                          h1, acts->Row(p - p0));
        }
      },
      pool_.get(), &q, /*first_layer=*/1);
  return std::move(q.data());
}

}  // namespace crowdrl::rl
