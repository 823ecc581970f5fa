#ifndef CROWDRL_RL_Q_NETWORK_H_
#define CROWDRL_RL_Q_NETWORK_H_

#include <memory>
#include <vector>

#include "math/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/action.h"
#include "rl/replay_buffer.h"
#include "util/thread_pool.h"

namespace crowdrl::rl {

/// Cached feature blocks handed to the factorized Q head (ScoreCache's
/// accessors produce exactly this shape). The version counters key the
/// network's per-object / per-annotator partial-product caches: equal
/// versions mean the block matrices are unchanged since the last call.
struct FeatureBlocks {
  const Matrix* object_blocks = nullptr;     // n x kObjectBlockDim.
  const Matrix* annotator_blocks = nullptr;  // m x kAnnotatorBlockDim.
  const double* global_block = nullptr;      // kGlobalBlockDim values.
  size_t object_version = 0;
  size_t annotator_version = 0;
};

/// Hyper-parameters of the Deep Q-Network.
struct QNetworkOptions {
  size_t feature_dim = 12;
  std::vector<size_t> hidden_sizes = {64, 32};
  double learning_rate = 1e-3;
  /// Discount factor gamma of the long-term reward (Eq. 1).
  double gamma = 0.95;
  /// Hard target-network sync every this many TrainBatch calls
  /// (ignored when soft_tau > 0).
  size_t target_sync_period = 25;
  /// If > 0, Polyak-average the target toward the online net each step.
  double soft_tau = 0.0;
  /// Double DQN [38] (the paper notes DQN variants drop in): the
  /// bootstrap evaluates the target network at the *online* network's
  /// arg-max action instead of taking the target's own max, which
  /// counters Q-value overestimation.
  bool double_dqn = false;
  /// Worker threads for batch inference (PredictBatch /
  /// TargetPredictBatch): rows are scored in parallel chunks. 1 (the
  /// default) runs the original serial path; results are bit-identical at
  /// every thread count because each row's forward pass is independent.
  int threads = 1;
  uint64_t seed = 17;
};

/// \brief Q(S, A; theta) as a small MLP over per-action features, with a
/// separate target network for the bootstrapped regression target
/// y = r + gamma * max_a' Q_target(S', a') (the loss L(theta) of
/// Section IV-A).
class QNetwork {
 public:
  explicit QNetwork(QNetworkOptions options);

  size_t feature_dim() const { return options_.feature_dim; }
  double gamma() const { return options_.gamma; }

  /// Online-network Q value for one action's features.
  double Predict(const std::vector<double>& features) const;

  /// Online-network Q values for a batch (one action per row).
  std::vector<double> PredictBatch(const Matrix& features) const;

  /// PredictBatch over `rows` feature rows that `fill` writes block by
  /// block inside the forward (see nn::Mlp::InferInto), on the inference
  /// pool's lanes when there is one. Bit-identical to the matrix overload
  /// on the same rows.
  std::vector<double> PredictBatch(size_t rows,
                                   const nn::Mlp::RowFiller& fill) const;

  /// Target-network Q values for a batch.
  std::vector<double> TargetPredictBatch(const Matrix& features) const;

  /// Q values for `pairs` from cached feature blocks, decomposing the
  /// first-layer GEMM as W*x = W_g*g + W_o*o_i + W_a*a_j with the
  /// per-object and per-annotator partial products cached across calls
  /// (invalidated by the blocks' version counters and by parameter
  /// updates). Requires the StateFeaturizer feature layout
  /// (feature_dim == StateFeaturizer::kFeatureDim).
  ///
  /// NOT bit-identical to PredictBatch: regrouping the first-layer sum
  /// changes the floating-point accumulation order, so results agree only
  /// to within a few ULPs (see DESIGN.md "Numerics & kernels"). The agent
  /// selects it through DqnAgentOptions::factorized_q_head (on by
  /// default).
  std::vector<double> PredictBatchFactorized(const FeatureBlocks& blocks,
                                             const std::vector<Action>& pairs,
                                             bool use_target);

  /// One SGD step on a replay minibatch; returns the TD loss.
  double TrainBatch(const std::vector<const Transition*>& batch);

  size_t train_steps() const { return train_steps_; }

  /// Parameter transfer for offline pre-training ("cross training
  /// methodology", Section VI-A4); also resets the target network.
  std::vector<double> FlatParameters() const;
  void SetFlatParameters(const std::vector<double>& params);

  /// Checkpointable surface: online and target networks, optimizer
  /// moments, and the train-step counter, bit-exact. Restore into a
  /// QNetwork constructed with the same options.
  void SaveState(io::Writer* writer) const;
  Status LoadState(io::Reader* reader);

 private:
  /// Cached first-layer partial products for one network (online or
  /// target), keyed by the block versions and the network's parameter
  /// version.
  struct FactorizedCache {
    Matrix object_partials;     // n x h1: object_blocks * W_o^T.
    Matrix annotator_partials;  // m x h1: annotator_blocks * W_a^T.
    Matrix w_object;            // h1 x kObjectBlockDim column slice of W.
    Matrix w_annotator;         // h1 x kAnnotatorBlockDim column slice.
    size_t object_version = 0;
    size_t annotator_version = 0;
    size_t params_version = 0;
    bool valid = false;
  };

  void SyncTargetIfDue();
  void RefreshFactorizedCache(const nn::Mlp& net, const FeatureBlocks& blocks,
                              size_t params_version, FactorizedCache* cache);

  QNetworkOptions options_;
  nn::Mlp online_;
  nn::Mlp target_;
  nn::Adam optimizer_;
  size_t train_steps_ = 0;
  /// Inference pool, null when options_.threads <= 1 (serial). Shared so
  /// the network stays copyable; copies score on the same workers.
  std::shared_ptr<ThreadPool> pool_;

  /// Parameter-change counters keying the factorized caches: bumped on
  /// every mutation of the corresponding network's weights.
  size_t params_version_ = 1;
  size_t target_params_version_ = 1;
  FactorizedCache factorized_online_;
  FactorizedCache factorized_target_;
  /// Output scratch for the batched predict paths (InferInto target),
  /// persistent so steady-state calls stay allocation-free; mutable
  /// because prediction is logically const.
  mutable Matrix predict_out_;
};

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_Q_NETWORK_H_
