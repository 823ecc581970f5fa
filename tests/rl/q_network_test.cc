#include "rl/q_network.h"

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rl/state.h"
#include "tests/testing/reference_fills.h"
#include "util/random.h"

namespace crowdrl::rl {
namespace {

QNetworkOptions SmallOptions() {
  QNetworkOptions options;
  options.feature_dim = 3;
  options.hidden_sizes = {8};
  options.seed = 5;
  return options;
}

TEST(QNetworkTest, PredictShapes) {
  QNetwork q(SmallOptions());
  EXPECT_EQ(q.feature_dim(), 3u);
  Matrix batch(4, 3, 0.1);
  std::vector<double> values = q.PredictBatch(batch);
  EXPECT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(q.Predict({0.1, 0.1, 0.1}), values[0]);
}

TEST(QNetworkTest, TargetStartsInSyncWithOnline) {
  QNetwork q(SmallOptions());
  Matrix batch(2, 3, 0.3);
  std::vector<double> online = q.PredictBatch(batch);
  std::vector<double> target = q.TargetPredictBatch(batch);
  for (size_t i = 0; i < online.size(); ++i) {
    EXPECT_DOUBLE_EQ(online[i], target[i]);
  }
}

TEST(QNetworkTest, TrainingFitsConstantTarget) {
  QNetwork q(SmallOptions());
  // Transitions all terminal with reward 2: Q(x) must approach 2.
  std::vector<Transition> transitions;
  Rng rng(9);
  for (int i = 0; i < 32; ++i) {
    Transition t;
    t.features = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    t.reward = 2.0;
    t.terminal = true;
    transitions.push_back(std::move(t));
  }
  std::vector<const Transition*> batch;
  for (const Transition& t : transitions) batch.push_back(&t);
  double first_loss = q.TrainBatch(batch);
  double last_loss = first_loss;
  for (int step = 0; step < 500; ++step) last_loss = q.TrainBatch(batch);
  EXPECT_LT(last_loss, first_loss * 0.05);
  EXPECT_NEAR(q.Predict({0.5, 0.5, 0.5}), 2.0, 0.3);
}

TEST(QNetworkTest, BootstrapUsesGammaAndNextMaxQ) {
  QNetworkOptions options = SmallOptions();
  options.gamma = 0.5;
  options.learning_rate = 5e-3;
  QNetwork q(options);
  Transition t;
  t.features = {0.1, 0.2, 0.3};
  t.reward = 1.0;
  t.next_max_q = 4.0;
  t.terminal = false;
  // Target = 1 + 0.5 * 4 = 3; training long enough converges there.
  std::vector<const Transition*> batch = {&t};
  for (int step = 0; step < 3000; ++step) q.TrainBatch(batch);
  EXPECT_NEAR(q.Predict(t.features), 3.0, 0.4);
}

TEST(QNetworkTest, HardTargetSyncHappensAtPeriod) {
  QNetworkOptions options = SmallOptions();
  options.target_sync_period = 5;
  QNetwork q(options);
  Transition t;
  t.features = {1.0, 1.0, 1.0};
  t.reward = 10.0;
  t.terminal = true;
  std::vector<const Transition*> batch = {&t};
  Matrix probe(1, 3, 1.0);
  double target_before = q.TargetPredictBatch(probe)[0];
  for (int i = 0; i < 4; ++i) q.TrainBatch(batch);
  // Not yet synced (4 < 5): target unchanged.
  EXPECT_DOUBLE_EQ(q.TargetPredictBatch(probe)[0], target_before);
  q.TrainBatch(batch);  // 5th step triggers sync.
  EXPECT_DOUBLE_EQ(q.TargetPredictBatch(probe)[0],
                   q.PredictBatch(probe)[0]);
}

TEST(QNetworkTest, SoftSyncMovesTargetEveryStep) {
  QNetworkOptions options = SmallOptions();
  options.soft_tau = 0.5;
  QNetwork q(options);
  Transition t;
  t.features = {1.0, 1.0, 1.0};
  t.reward = 10.0;
  t.terminal = true;
  std::vector<const Transition*> batch = {&t};
  Matrix probe(1, 3, 1.0);
  double before = q.TargetPredictBatch(probe)[0];
  q.TrainBatch(batch);
  double after = q.TargetPredictBatch(probe)[0];
  EXPECT_NE(before, after);
}

TEST(QNetworkTest, ParameterRoundTripResetsTarget) {
  QNetwork a(SmallOptions());
  QNetworkOptions other = SmallOptions();
  other.seed = 99;
  QNetwork b(other);
  b.SetFlatParameters(a.FlatParameters());
  Matrix probe(1, 3, 0.7);
  EXPECT_DOUBLE_EQ(a.PredictBatch(probe)[0], b.PredictBatch(probe)[0]);
  EXPECT_DOUBLE_EQ(b.PredictBatch(probe)[0],
                   b.TargetPredictBatch(probe)[0]);
}

// Candidate-list shapes the fused fill must get right: object-major runs
// (enumeration order), strictly alternating objects (every pair starts a
// new run, so a hoist that skips an object boundary reads the wrong
// object), and an arbitrary order with repeats.
std::vector<std::vector<Action>> FillPairLists(size_t objects,
                                               size_t annotators,
                                               size_t length, Rng* rng) {
  std::vector<Action> runs;
  for (size_t i = 0; runs.size() < length; i = (i + 1) % objects) {
    for (size_t j = 0; j < annotators && runs.size() < length; ++j) {
      runs.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  std::vector<Action> alternating;
  for (size_t p = 0; p < length; ++p) {
    alternating.push_back({static_cast<int>(p % 2),
                           static_cast<int>((p / 2) % annotators)});
  }
  std::vector<Action> arbitrary;
  for (size_t p = 0; p < length; ++p) {
    arbitrary.push_back(
        {rng->UniformInt(static_cast<int>(objects)),
         rng->UniformInt(static_cast<int>(annotators))});
    if (rng->Bernoulli(0.3)) arbitrary.push_back(arbitrary.back());
  }
  return {runs, alternating, arbitrary};
}

// PredictBatchFactorized end to end against the from-first-principles
// reference (unfused layer-0 fill, no hoisted g + O_i), bitwise, for the
// online and the target network (which differ after a few training
// steps), serially and on 4 lanes, with lists longer than one 256-row
// forward block. Object 2's block holds a NaN, so its pre-activations are
// NaN and ReLU must turn them into +0.0. A feature mask that switches off
// global, object and annotator columns must equal the reference on the
// network whose masked layer-0 columns are zeroed.
TEST(FactorizedFillTest, PredictBatchFactorizedMatchesReferenceBitwise) {
  constexpr size_t kObjects = 37;
  constexpr size_t kAnnotators = 6;
  Rng rng(73);
  Matrix object_blocks(kObjects, StateFeaturizer::kObjectBlockDim);
  Matrix annotator_blocks(kAnnotators, StateFeaturizer::kAnnotatorBlockDim);
  object_blocks.FillUniform(&rng, -1.0, 1.0);
  annotator_blocks.FillUniform(&rng, -1.0, 1.0);
  object_blocks.At(2, 0) = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> global_block = {0.4, -0.7, 0.25};
  FeatureBlocks blocks;
  blocks.object_blocks = &object_blocks;
  blocks.annotator_blocks = &annotator_blocks;
  blocks.global_block = global_block.data();
  std::vector<bool> mask(StateFeaturizer::kFeatureDim, true);
  for (size_t column : {0, 2, 5, 7, 11}) mask[column] = false;

  std::vector<Transition> transitions(16);
  for (Transition& t : transitions) {
    t.features.resize(StateFeaturizer::kFeatureDim);
    for (double& f : t.features) f = rng.Uniform(-1.0, 1.0);
    t.reward = rng.Uniform();
    t.terminal = true;
  }
  std::vector<const Transition*> batch;
  for (const Transition& t : transitions) batch.push_back(&t);

  for (int threads : {1, 4}) {
    QNetworkOptions options;  // Production shape: 12 -> 64 -> 32 -> 1.
    options.threads = threads;
    options.learning_rate = 1e-2;
    QNetwork q(options);
    const std::vector<double> initial = q.FlatParameters();
    for (int step = 0; step < 3; ++step) q.TrainBatch(batch);  // < sync.
    Rng net_rng(1);
    nn::Mlp online({12, 64, 32, 1},
                   {nn::Activation::kRelu, nn::Activation::kRelu,
                    nn::Activation::kIdentity},
                   &net_rng);
    nn::Mlp target = online;
    online.SetFlatParameters(q.FlatParameters());
    target.SetFlatParameters(initial);
    ASSERT_NE(q.FlatParameters(), initial);

    for (const std::vector<Action>& pairs :
         FillPairLists(kObjects, kAnnotators, 700, &rng)) {
      for (bool masked : {false, true}) {
        blocks.feature_mask = masked ? &mask : nullptr;
        for (bool use_target : {false, true}) {
          const nn::Mlp& net = use_target ? target : online;
          const std::vector<double> got =
              q.PredictBatchFactorized(blocks, pairs, use_target);
          const std::vector<double> want = testing::ReferenceFactorizedQ(
              masked ? testing::WithMaskedInputs(net, mask) : net, blocks,
              pairs);
          ASSERT_EQ(got.size(), want.size());
          size_t mismatches = 0;
          for (size_t p = 0; p < got.size(); ++p) {
            if (std::memcmp(&got[p], &want[p], sizeof(double)) != 0) {
              ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << "threads " << threads << " masked " << masked << " target "
              << use_target << ", " << pairs.size() << " pairs";
        }
      }
    }
  }
}

}  // namespace
}  // namespace crowdrl::rl
