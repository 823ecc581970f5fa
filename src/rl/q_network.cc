#include "rl/q_network.h"

#include <algorithm>

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
  if (options.inference_backend != math::BackendKind::kReference) {
    serving_backend_owned_ = math::CreateBackend(options.inference_backend);
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

math::Backend* QNetwork::serving_backend() const {
  return serving_backend_owned_ != nullptr ? serving_backend_owned_.get()
                                           : math::ReferenceBackend();
}

std::vector<double> QNetwork::PredictBatchServing(
    const Matrix& features) const {
  online_.InferInto(features, pool_.get(), &predict_out_,
                    serving_backend());
  return QColumn(predict_out_);
}

std::vector<double> QNetwork::PredictBatchServing(
    size_t rows, const nn::Mlp::RowFiller& fill) const {
  online_.InferInto(rows, fill, pool_.get(), &predict_out_,
                    serving_backend());
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
    bool use_target, bool serving) {
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

  // Loop-fused over row blocks, like Mlp::InferInto: each block assembles
  // its first-layer activations from the cached partials and runs the
  // remaining layers before the next block starts, so no batch-sized
  // activation matrix is ever materialized. Block boundaries are fixed by
  // kFactorizedBlockRows (never by thread count) and every per-element
  // accumulation order matches the unblocked formulation, so results are
  // bit-identical at any thread count.
  constexpr size_t kFactorizedBlockRows = 256;
  const size_t num_pairs = pairs.size();
  // Serving calls route the post-first-layer products through the
  // configured backend (weight tags use the Mlp's own params version, the
  // same identity the dense serving path tags with, so the quantized pack
  // is shared). Bootstrap/training calls pin the reference backend.
  math::Backend* backend =
      serving ? serving_backend() : math::ReferenceBackend();
  std::vector<double> q(num_pairs);
  auto block_body = [&](size_t p0, size_t p1) {
    thread_local Matrix acts;
    thread_local Matrix bufs[2];
    const size_t n = p1 - p0;
    if (acts.rows() != n || acts.cols() != h1) acts = Matrix(n, h1);
    for (size_t p = p0; p < p1; ++p) {
      const double* object_row = cache.object_partials.Row(
          static_cast<size_t>(pairs[p].object));
      const double* annotator_row = cache.annotator_partials.Row(
          static_cast<size_t>(pairs[p].annotator));
      double* acts_row = acts.Row(p - p0);
      for (size_t h = 0; h < h1; ++h) {
        acts_row[h] = global_partial[h] + object_row[h] + annotator_row[h];
      }
    }
    nn::ApplyActivationRows(net.layer_activation(0), &acts, 0, n);
    const Matrix* current = &acts;
    for (size_t l = 1; l < net.num_layers(); ++l) {
      const std::vector<double>& layer_bias = net.layer_bias(l);
      const nn::Activation act = net.layer_activation(l);
      Matrix* o = &bufs[l % 2];
      backend->LinearNT(*current, net.layer_weight(l),
                        {&net, static_cast<uint32_t>(l),
                         net.params_version()},
                        o, nullptr,
                        [&layer_bias, act, o](size_t r0, size_t r1) {
                          const size_t cols = o->cols();
                          for (size_t r = r0; r < r1; ++r) {
                            double* row = o->Row(r);
                            for (size_t c = 0; c < cols; ++c) {
                              row[c] += layer_bias[c];
                            }
                          }
                          nn::ApplyActivationRows(act, o, r0, r1);
                        },
                        nullptr);
      current = o;
    }
    for (size_t p = p0; p < p1; ++p) q[p] = current->At(p - p0, 0);
  };
  if (pool_ != nullptr && num_pairs > kFactorizedBlockRows) {
    pool_->ParallelFor(0, num_pairs, kFactorizedBlockRows, block_body);
  } else {
    for (size_t p0 = 0; p0 < num_pairs; p0 += kFactorizedBlockRows) {
      block_body(p0, std::min(p0 + kFactorizedBlockRows, num_pairs));
    }
  }
  return q;
}

}  // namespace crowdrl::rl
