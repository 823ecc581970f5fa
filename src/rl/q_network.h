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

/// Feature blocks handed to the factorized Q head (ScoreCache's accessors
/// produce exactly this shape), plus the agent's ablation mask.
struct FeatureBlocks {
  const Matrix* object_blocks = nullptr;     // n x kObjectBlockDim.
  const Matrix* annotator_blocks = nullptr;  // m x kAnnotatorBlockDim.
  const double* global_block = nullptr;      // kGlobalBlockDim values.
  /// kFeatureDim entries; null or empty = every feature on. The head
  /// zeroes the layer-0 weight columns of masked-off features, which is
  /// what a masked dense row (zeros in those columns) feeds them.
  const std::vector<bool>* feature_mask = nullptr;
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
  /// TargetPredictBatch / PredictBatchFactorized): rows are scored in
  /// parallel blocks. 1 (the default) runs the serial path; results are
  /// bit-identical at every thread count because each row's forward pass
  /// is independent.
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

  /// Online-network Q values for a batch (one action per row): the dense
  /// forward, kept as the reference the factorized head is tested against.
  std::vector<double> PredictBatch(const Matrix& features) const;

  /// Target-network Q values for a batch.
  std::vector<double> TargetPredictBatch(const Matrix& features) const;

  /// Q values for `pairs` from feature blocks — the agent's one selection
  /// forward. The first-layer product is decomposed as
  /// W*x = W_g*g + W_o*o_i + W_a*a_j: each call forms the global partial
  /// and the per-annotator partials, and every 256-row block of the
  /// blocked forward computes the per-object partials of its own object
  /// runs. Nothing outlives the call. Requires the StateFeaturizer feature
  /// layout (feature_dim == StateFeaturizer::kFeatureDim).
  ///
  /// NOT bit-identical to PredictBatch: regrouping the first-layer sum
  /// changes the floating-point accumulation order, so results agree only
  /// to within a few ULPs (see DESIGN.md "Numerics & kernels").
  std::vector<double> PredictBatchFactorized(const FeatureBlocks& blocks,
                                             const std::vector<Action>& pairs,
                                             bool use_target) const;

  /// One SGD step on a replay minibatch; returns the TD loss.
  double TrainBatch(const std::vector<const Transition*>& batch);

  size_t train_steps() const { return train_steps_; }

  /// The inference pool (QNetworkOptions::threads lanes), or null when
  /// serial. The agent's tiled selection runs its scoring pass on it too.
  ThreadPool* inference_pool() const { return pool_.get(); }

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
  void SyncTargetIfDue();

  QNetworkOptions options_;
  nn::Mlp online_;
  nn::Mlp target_;
  nn::Adam optimizer_;
  size_t train_steps_ = 0;
  /// Inference pool, null when options_.threads <= 1 (serial). Shared so
  /// the network stays copyable; copies score on the same workers.
  std::shared_ptr<ThreadPool> pool_;
  /// Output scratch for the dense batched predict paths (InferInto
  /// target), persistent so steady-state calls stay allocation-free;
  /// mutable because prediction is logically const.
  mutable Matrix predict_out_;
};

}  // namespace crowdrl::rl

#endif  // CROWDRL_RL_Q_NETWORK_H_
