// The thread-pool determinism contract: every threaded hot path
// (candidate featurization, batch Q inference, the GEMM kernels) must
// produce results bit-identical to the serial threads=1 path.

#include <vector>

#include <gtest/gtest.h>

#include "math/gemm.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/dqn_agent.h"
#include "tests/testing/reference_scoring.h"
#include "tests/testing/sim_helpers.h"
#include "util/thread_pool.h"

namespace crowdrl::rl {
namespace {

// Large enough that the parallel chunking in featurization (grain 128) and
// MLP inference (64-row chunks) actually engages.
struct WideFixture {
  static constexpr size_t kObjects = 60;
  static constexpr size_t kAnnotators = 6;

  crowd::AnswerLog answers{kObjects, kAnnotators};
  std::vector<double> costs;
  std::vector<double> qualities;
  std::vector<bool> is_expert;
  std::vector<bool> labelled;
  std::vector<bool> affordable;

  WideFixture() {
    for (size_t j = 0; j < kAnnotators; ++j) {
      bool expert = j + 1 == kAnnotators;
      costs.push_back(expert ? 10.0 : 1.0);
      qualities.push_back(0.5 + 0.05 * static_cast<double>(j));
      is_expert.push_back(expert);
      affordable.push_back(true);
    }
    labelled.assign(kObjects, false);
    // A few answers so the history features are non-trivial.
    answers.Record(0, 0, 1);
    answers.Record(0, 1, 0);
    answers.Record(1, 2, 1);
  }

  StateView View() const {
    StateView view;
    view.answers = &answers;
    view.num_classes = 2;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.labelled = &labelled;
    view.budget_fraction_remaining = 0.8;
    view.fraction_labelled = 0.1;
    view.max_cost = 10.0;
    return view;
  }

  DqnAgent MakeAgent(int threads) const {
    DqnAgentOptions options;
    options.exploration = ExplorationMode::kUcb;
    options.seed = 13;
    options.q.seed = 17;
    options.threads = threads;
    options.q.threads = threads;
    DqnAgent agent(options);
    agent.BeginEpisode(kObjects, kAnnotators);
    return agent;
  }
};

void ExpectScoredBitIdentical(const ScoredCandidates& got,
                              const ScoredCandidates& baseline) {
  ASSERT_EQ(got.actions.size(), baseline.actions.size());
  for (size_t i = 0; i < got.actions.size(); ++i) {
    EXPECT_EQ(got.actions[i].object, baseline.actions[i].object);
    EXPECT_EQ(got.actions[i].annotator, baseline.actions[i].annotator);
    EXPECT_EQ(got.scores[i], baseline.scores[i]) << "candidate " << i;
  }
  ASSERT_EQ(got.features.rows(), baseline.features.rows());
  ASSERT_EQ(got.features.cols(), baseline.features.cols());
  for (size_t i = 0; i < got.features.size(); ++i) {
    EXPECT_EQ(got.features.data()[i], baseline.features.data()[i]);
  }
}

TEST(ParallelScoringTest, ScoreIsBitIdenticalAcrossThreadCounts) {
  WideFixture f;
  DqnAgent serial = f.MakeAgent(1);
  ScoredCandidates baseline = serial.Score(f.View(), f.affordable);
  ASSERT_EQ(baseline.actions.size(), f.kObjects * f.kAnnotators - 3);

  for (int threads : {2, 4}) {
    DqnAgent agent = f.MakeAgent(threads);
    ScoredCandidates got = agent.Score(f.View(), f.affordable);
    ExpectScoredBitIdentical(got, baseline);
  }
}

// The incremental (ScoreCache) engine must reproduce the naive
// featurize-every-pair reference bit for bit, at every thread count —
// including on a second Score after the state changed (exercising the
// dirty-block resync rather than the first full rebuild).
TEST(ParallelScoringTest, CachedScoringMatchesNaiveAcrossThreadCounts) {
  WideFixture f;
  DqnAgent serial = f.MakeAgent(1);
  const crowdrl::testing::ReferenceScorer naive(
      f.kObjects, f.kAnnotators, DqnAgentOptions{}.ucb_c);
  ScoredCandidates baseline =
      naive.Score(f.View(), f.affordable, serial.q_network());

  std::vector<DqnAgent> cached;
  for (int threads : {1, 2, 4}) {
    cached.push_back(f.MakeAgent(threads));
    ScoredCandidates got = cached.back().Score(f.View(), f.affordable);
    ExpectScoredBitIdentical(got, baseline);
  }

  // Dirty a few blocks: new answers, a quality update, progress counters.
  f.answers.Record(2, 3, 1);
  f.answers.Record(0, 2, 0);
  f.qualities[4] = 0.9;
  StateView view = f.View();
  view.budget_fraction_remaining = 0.6;
  view.fraction_labelled = 0.25;

  ScoredCandidates baseline2 =
      naive.Score(view, f.affordable, serial.q_network());
  for (DqnAgent& agent : cached) {
    ScoredCandidates got = agent.Score(view, f.affordable);
    ExpectScoredBitIdentical(got, baseline2);
  }
}

// The observability hooks in the scoring hot path (featurize / q_forward /
// top-k spans, ScoreCache counters, ThreadPool histograms, GEMM
// histograms) only read clocks and bump atomics: scoring with metrics and
// tracing fully enabled must stay bit-identical to the uninstrumented
// baseline, on first build and on dirty resync, at every thread count.
TEST(ParallelScoringTest, ScoreIsBitIdenticalWithObservabilityEnabled) {
  WideFixture f;
  DqnAgent serial = f.MakeAgent(1);
  ScoredCandidates baseline = serial.Score(f.View(), f.affordable);

  obs::SetEnabled(true);
  obs::SetTracing(true);
  for (int threads : {1, 4}) {
    DqnAgent agent = f.MakeAgent(threads);
    ScoredCandidates got = agent.Score(f.View(), f.affordable);
    ExpectScoredBitIdentical(got, baseline);
  }
  // The hooks actually fired: the instrumented Syncs were counted and the
  // scoring spans recorded.
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  uint64_t syncs = 0;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "crowdrl.scorecache.syncs") syncs = counter.value;
  }
  EXPECT_GE(syncs, 2u);
  EXPECT_GT(obs::TraceRecorder::Get().event_count(), 0u);
  obs::TraceRecorder::Get().Clear();
  obs::SetTracing(false);
  obs::SetEnabled(false);

  // And back off: disabled again reproduces the same bits.
  DqnAgent after = f.MakeAgent(2);
  ExpectScoredBitIdentical(after.Score(f.View(), f.affordable), baseline);
}

TEST(ParallelScoringTest, MlpInferOnPoolMatchesSerialBitwise) {
  Rng rng(7);
  nn::Mlp mlp({12, 32, 4},
              {nn::Activation::kRelu, nn::Activation::kIdentity}, &rng);
  Matrix batch(300, 12);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch.data()[i] = rng.Uniform(-2.0, 2.0);
  }

  Matrix serial = mlp.Infer(batch);
  ThreadPool pool(4);
  Matrix parallel = mlp.Infer(batch, &pool);
  ASSERT_EQ(parallel.rows(), serial.rows());
  ASSERT_EQ(parallel.cols(), serial.cols());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel.data()[i], serial.data()[i]) << "element " << i;
  }

  // nullptr pool falls back to the serial path.
  Matrix fallback = mlp.Infer(batch, nullptr);
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(fallback.data()[i], serial.data()[i]);
  }
}

// The same invariant, pushed all the way down to the GEMM kernels the MLP
// paths are built on (tests/math/gemm_test.cc sweeps more shapes; this
// pins the layer the RL hot path actually exercises: Q-scoring-sized
// activations against a weight matrix, all three layout variants).
TEST(ParallelScoringTest, GemmKernelsOnPoolMatchSerialBitwise) {
  Rng rng(23);
  Matrix acts(360, 48);
  Matrix weights(32, 48);
  acts.FillUniform(&rng, -2.0, 2.0);
  weights.FillUniform(&rng, -1.0, 1.0);

  Matrix nt_serial, tn_serial, nn_serial;
  gemm::MatMulNTInto(acts, weights, &nt_serial);
  gemm::MatMulTNInto(nt_serial, acts, &tn_serial);
  gemm::MatMulInto(nt_serial, weights, &nn_serial);

  for (size_t threads : {2, 4}) {
    ThreadPool pool(threads);
    Matrix nt, tn, nn;
    gemm::MatMulNTInto(acts, weights, &nt, &pool);
    gemm::MatMulTNInto(nt_serial, acts, &tn, &pool);
    gemm::MatMulInto(nt_serial, weights, &nn, &pool);
    for (size_t i = 0; i < nt_serial.size(); ++i) {
      ASSERT_EQ(nt.data()[i], nt_serial.data()[i]) << "NT " << i;
    }
    for (size_t i = 0; i < tn_serial.size(); ++i) {
      ASSERT_EQ(tn.data()[i], tn_serial.data()[i]) << "TN " << i;
    }
    for (size_t i = 0; i < nn_serial.size(); ++i) {
      ASSERT_EQ(nn.data()[i], nn_serial.data()[i]) << "NN " << i;
    }
  }
}

}  // namespace
}  // namespace crowdrl::rl
