// The incremental scoring engine's contract (ScoreCache + DqnAgent):
//  - the agent's Score is bit-identical to the naive featurize-every-pair
//    reference (tests/testing/reference_scoring.h) — features, Q scores,
//    and selected assignments — at every iteration of a randomized run,
//    including across checkpoint/resume;
//  - dirty tracking refreshes exactly the blocks whose inputs changed;
//  - the factorized Q head, the agent's one selection forward, agrees
//    with the dense forward to within a small ULP bound, masked or not.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/serializer.h"
#include "obs/metrics.h"
#include "rl/dqn_agent.h"
#include "rl/score_cache.h"
#include "tests/testing/reference_scoring.h"
#include "util/random.h"

namespace crowdrl::rl {
namespace {

constexpr size_t kObjects = 64;
constexpr size_t kAnnotators = 8;
constexpr int kClasses = 4;

/// A mutable workload the tests drive through answer arrivals, quality /
/// classifier refreshes, labelling progress, and budget decay — the events
/// that dirty ScoreCache blocks in a real run.
struct Scenario {
  crowd::AnswerLog answers{kObjects, kAnnotators};
  std::vector<double> costs;
  std::vector<double> qualities;
  std::vector<bool> is_expert;
  std::vector<bool> labelled;
  std::vector<bool> affordable;
  Matrix class_probs{kObjects, static_cast<size_t>(kClasses)};
  size_t probs_version = 0;
  bool have_probs = false;
  double budget_fraction = 1.0;
  double fraction_labelled = 0.0;
  Rng rng{4211};

  Scenario() {
    for (size_t j = 0; j < kAnnotators; ++j) {
      bool expert = j + 1 == kAnnotators;
      costs.push_back(expert ? 8.0 : 1.0 + 0.25 * static_cast<double>(j));
      qualities.push_back(0.55 + 0.04 * static_cast<double>(j));
      is_expert.push_back(expert);
      affordable.push_back(true);
    }
    labelled.assign(kObjects, false);
  }

  void RefreshProbs() {
    for (size_t i = 0; i < kObjects; ++i) {
      double sum = 0.0;
      double* row = class_probs.Row(i);
      for (int c = 0; c < kClasses; ++c) {
        row[c] = 0.05 + rng.Uniform();
        sum += row[c];
      }
      for (int c = 0; c < kClasses; ++c) row[c] /= sum;
    }
    ++probs_version;
    have_probs = true;
  }

  StateView View(bool versioned = true) const {
    StateView view;
    view.answers = &answers;
    view.num_classes = kClasses;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.class_probs = have_probs ? &class_probs : nullptr;
    view.class_probs_version = have_probs && versioned ? probs_version : 0;
    view.labelled = &labelled;
    view.budget_fraction_remaining = budget_fraction;
    view.fraction_labelled = fraction_labelled;
    view.max_cost = 8.0;
    return view;
  }
};

DqnAgentOptions MakeOptions() {
  DqnAgentOptions options;
  options.seed = 29;
  options.q.seed = 31;
  options.min_replay_before_training = 16;
  options.train_batch = 8;
  options.train_steps_per_observe = 2;
  return options;
}

void ExpectScoredBitIdentical(const ScoredCandidates& got,
                              const ScoredCandidates& want, int iteration) {
  ASSERT_EQ(got.actions.size(), want.actions.size()) << "iter " << iteration;
  for (size_t i = 0; i < got.actions.size(); ++i) {
    ASSERT_EQ(got.actions[i].object, want.actions[i].object)
        << "iter " << iteration << " candidate " << i;
    ASSERT_EQ(got.actions[i].annotator, want.actions[i].annotator)
        << "iter " << iteration << " candidate " << i;
    ASSERT_EQ(got.scores[i], want.scores[i])
        << "iter " << iteration << " candidate " << i;
  }
  ASSERT_EQ(got.features.rows(), want.features.rows());
  ASSERT_EQ(got.features.cols(), want.features.cols());
  for (size_t i = 0; i < got.features.size(); ++i) {
    ASSERT_EQ(got.features.data()[i], want.features.data()[i])
        << "iter " << iteration << " feature element " << i;
  }
}

DqnAgent RoundTrip(const DqnAgent& agent, DqnAgentOptions options) {
  io::Writer writer;
  agent.SaveState(&writer);
  DqnAgent fresh(std::move(options));
  io::Reader reader(writer.bytes());
  EXPECT_TRUE(fresh.LoadState(&reader).ok());
  return fresh;
}

// Satellite property test: a randomized run (random k, inference-style
// refreshes, budget exhaustion, checkpoint/resume mid-run) in which the
// cached agent's features, Q scores, and chosen assignments must be
// bit-identical to the from-scratch reference scorer (evaluating the
// agent's own network, mirroring its UCB counts) at every iteration.
TEST(IncrementalScoringTest, CachedAgentMatchesNaiveOverRandomizedRun) {
  Scenario s;
  DqnAgent cached(MakeOptions());
  testing::ReferenceScorer naive(kObjects, kAnnotators, MakeOptions().ucb_c);
  cached.BeginEpisode(kObjects, kAnnotators);

  for (int iter = 0; iter < 24; ++iter) {
    // Inference-style refresh: new classifier beliefs and a quality nudge.
    if (iter % 3 == 1) {
      s.RefreshProbs();
      s.qualities[static_cast<size_t>(s.rng.UniformInt(
          static_cast<int>(kAnnotators)))] = s.rng.Uniform(0.3, 0.95);
    }
    // Labelling progress.
    if (iter % 4 == 2) {
      size_t i = static_cast<size_t>(
          s.rng.UniformInt(static_cast<int>(kObjects)));
      if (!s.labelled[i]) {
        s.labelled[i] = true;
        s.fraction_labelled += 1.0 / static_cast<double>(kObjects);
      }
    }
    // Budget decay, down to exhaustion of the expensive annotators.
    s.budget_fraction = std::max(0.0, s.budget_fraction - 0.04);
    if (iter == 15) s.affordable[kAnnotators - 1] = false;
    if (iter == 19) s.affordable[0] = false;

    // Every 5th iteration presents the view unversioned, exercising the
    // conservative always-refresh classifier path.
    StateView view = s.View(/*versioned=*/iter % 5 != 0);
    int k = 1 + s.rng.UniformInt(2);
    int picks = 1 + s.rng.UniformInt(3);

    ScoredCandidates from_naive =
        naive.Score(view, s.affordable, cached.q_network());
    ScoredCandidates from_cached = cached.Score(view, s.affordable);
    ExpectScoredBitIdentical(from_cached, from_naive, iter);

    std::vector<size_t> chosen_naive;
    std::vector<size_t> chosen_cached;
    std::vector<Assignment> assign_naive = PickTopKSumAssignments(
        from_naive, k, picks, kObjects, &chosen_naive);
    std::vector<Assignment> assign_cached = PickTopKSumAssignments(
        from_cached, k, picks, kObjects, &chosen_cached);
    ASSERT_EQ(chosen_naive, chosen_cached) << "iter " << iter;
    ASSERT_EQ(assign_naive.size(), assign_cached.size());
    for (size_t a = 0; a < assign_naive.size(); ++a) {
      ASSERT_EQ(assign_naive[a].object, assign_cached[a].object);
      ASSERT_EQ(assign_naive[a].annotators, assign_cached[a].annotators);
    }
    naive.Commit(from_naive, chosen_naive);
    cached.Commit(from_cached, chosen_cached);

    // Execute the (identical) assignments against the shared log.
    for (const Assignment& assignment : assign_naive) {
      for (int j : assignment.annotators) {
        s.answers.Record(assignment.object, j, s.rng.UniformInt(kClasses));
      }
    }

    double reward = s.rng.Uniform();
    StateView next = s.View(/*versioned=*/iter % 5 != 0);
    cached.Observe(reward, next, s.affordable, /*terminal=*/false);

    // Mid-run checkpoint into a fresh agent: the ScoreCache is not
    // serialized and must rebuild to the same bits, and the restored
    // network and UCB counts must keep matching the reference.
    if (iter == 11) cached = RoundTrip(cached, MakeOptions());
  }
}

TEST(ScoreCacheTest, AssembledRowsMatchFeaturizerBitwise) {
  Scenario s;
  s.RefreshProbs();
  s.answers.Record(0, 1, 2);
  s.answers.Record(0, 3, 2);
  s.answers.Record(5, 0, 1);
  StateView view = s.View();

  ScoreCache cache;
  cache.Sync(view);
  StateFeaturizer featurizer;
  std::vector<double> want;
  double got[StateFeaturizer::kFeatureDim];
  for (size_t i = 0; i < kObjects; ++i) {
    for (size_t j = 0; j < kAnnotators; ++j) {
      featurizer.Featurize(view, static_cast<int>(i), static_cast<int>(j),
                           &want);
      cache.AssembleRowInto(static_cast<int>(i), static_cast<int>(j), got);
      ASSERT_EQ(want.size(), StateFeaturizer::kFeatureDim);
      // Bits, not values: a -0.0 for +0.0 is a different row.
      ASSERT_EQ(std::memcmp(got, want.data(), sizeof(got)), 0)
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(ScoreCacheTest, DirtyTrackingRefreshesOnlyChangedBlocks) {
  Scenario s;
  s.RefreshProbs();
  ScoreCache cache;
  cache.Sync(s.View());
  EXPECT_TRUE(cache.last_sync_stats().full_rebuild);

  // Unchanged view: nothing recomputes.
  cache.Sync(s.View());
  EXPECT_FALSE(cache.last_sync_stats().full_rebuild);
  EXPECT_EQ(cache.last_sync_stats().history_refreshes, 0u);
  EXPECT_EQ(cache.last_sync_stats().classifier_refreshes, 0u);
  EXPECT_EQ(cache.last_sync_stats().annotator_refreshes, 0u);

  // Answers dirty exactly the touched objects (deduplicated).
  s.answers.Record(3, 0, 1);
  s.answers.Record(3, 1, 2);
  s.answers.Record(7, 0, 0);
  cache.Sync(s.View());
  EXPECT_EQ(cache.last_sync_stats().history_refreshes, 2u);
  EXPECT_EQ(cache.last_sync_stats().annotator_refreshes, 0u);

  // A quality change dirties exactly that annotator.
  s.qualities[2] = 0.7;
  cache.Sync(s.View());
  EXPECT_EQ(cache.last_sync_stats().annotator_refreshes, 1u);
  EXPECT_EQ(cache.last_sync_stats().history_refreshes, 0u);

  // A class_probs refresh dirties every object's classifier columns.
  s.RefreshProbs();
  cache.Sync(s.View());
  EXPECT_EQ(cache.last_sync_stats().classifier_refreshes, kObjects);

  // An unversioned view refreshes the classifier columns on every Sync.
  cache.Sync(s.View(/*versioned=*/false));
  EXPECT_EQ(cache.last_sync_stats().classifier_refreshes, kObjects);
}

// Satellite: the cumulative sync statistics behind the
// crowdrl.scorecache.* metrics — totals accumulate across Syncs, hits and
// misses partition the consulted blocks exactly, and the counters reset
// on Invalidate (and therefore across BeginEpisode / LoadState).
TEST(ScoreCacheTest, CumulativeStatsAccumulateAndPartitionExactly) {
  Scenario s;
  s.RefreshProbs();
  ScoreCache cache;
  EXPECT_EQ(cache.cumulative_stats().syncs, 0u);

  cache.Sync(s.View());       // Full rebuild.
  cache.Sync(s.View());       // Clean: all hits.
  s.answers.Record(3, 0, 1);  // Dirties one object's history part.
  s.answers.Record(6, 1, 2);  // And another.
  s.qualities[2] = 0.8;       // Dirties one annotator block.
  cache.Sync(s.View());

  const ScoreCache::CumulativeStats& stats = cache.cumulative_stats();
  EXPECT_EQ(stats.syncs, 3u);
  EXPECT_EQ(stats.full_rebuilds, 1u);
  EXPECT_EQ(stats.objects_dirtied, kObjects + 2);
  const size_t consulted_per_sync = 2 * kObjects + kAnnotators;
  EXPECT_EQ(stats.block_hits + stats.block_misses,
            stats.syncs * consulted_per_sync);
  // Sync 1 misses everything, sync 2 nothing, sync 3 exactly 2 history
  // parts + 1 annotator block.
  EXPECT_EQ(stats.block_misses, consulted_per_sync + 3);
  EXPECT_EQ(stats.blocks_rebuilt, stats.block_misses);

  cache.Invalidate();
  EXPECT_EQ(cache.cumulative_stats().syncs, 0u);
  EXPECT_EQ(cache.cumulative_stats().block_hits, 0u);
  EXPECT_EQ(cache.cumulative_stats().block_misses, 0u);
  EXPECT_EQ(cache.cumulative_stats().objects_dirtied, 0u);
  EXPECT_EQ(cache.cumulative_stats().full_rebuilds, 0u);
}

TEST(IncrementalScoringTest, CumulativeStatsResetAcrossEpisodeAndRestore) {
  Scenario s;
  s.RefreshProbs();
  DqnAgent agent(MakeOptions());
  agent.BeginEpisode(kObjects, kAnnotators);
  agent.Score(s.View(), s.affordable);
  s.answers.Record(1, 0, 2);
  agent.Score(s.View(), s.affordable);
  ASSERT_EQ(agent.score_cache().cumulative_stats().syncs, 2u);
  ASSERT_GT(agent.score_cache().cumulative_stats().block_hits, 0u);

  // A new episode must not inherit the previous episode's totals.
  agent.BeginEpisode(kObjects, kAnnotators);
  EXPECT_EQ(agent.score_cache().cumulative_stats().syncs, 0u);
  EXPECT_EQ(agent.score_cache().cumulative_stats().block_hits, 0u);

  // Neither must an agent restored from a checkpoint.
  agent.Score(s.View(), s.affordable);
  ASSERT_EQ(agent.score_cache().cumulative_stats().syncs, 1u);
  DqnAgent restored = RoundTrip(agent, MakeOptions());
  EXPECT_EQ(restored.score_cache().cumulative_stats().syncs, 0u);
  EXPECT_EQ(restored.score_cache().cumulative_stats().block_misses, 0u);
}

uint64_t OrderedBits(double x) {
  uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return (u & 0x8000000000000000ULL) ? ~u : (u | 0x8000000000000000ULL);
}

uint64_t UlpDistance(double a, double b) {
  uint64_t ua = OrderedBits(a);
  uint64_t ub = OrderedBits(b);
  return ua > ub ? ua - ub : ub - ua;
}

// Regrouping the first-layer sum changes the accumulation order, so the
// factorized head is pinned to ULP-level (not bitwise) agreement; see
// DESIGN.md "Numerics & kernels".
constexpr uint64_t kFactorizedUlpBound = 512;
constexpr double kFactorizedAbsBound = 1e-9;

void ExpectUlpClose(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(UlpDistance(got[i], want[i]) <= kFactorizedUlpBound ||
                std::fabs(got[i] - want[i]) <= kFactorizedAbsBound)
        << what << " value " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(FactorizedQHeadTest, MatchesExactForwardWithinUlps) {
  Scenario s;
  s.RefreshProbs();
  s.answers.Record(0, 1, 2);
  s.answers.Record(4, 0, 1);
  StateView view = s.View();

  ScoreCache cache;
  cache.Sync(view);
  std::vector<Action> pairs;
  for (size_t i = 0; i < kObjects; ++i) {
    for (size_t j = 0; j < kAnnotators; ++j) {
      pairs.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  Matrix features(pairs.size(), StateFeaturizer::kFeatureDim);
  for (size_t p = 0; p < pairs.size(); ++p) {
    cache.AssembleRowInto(pairs[p].object, pairs[p].annotator,
                          features.Row(p));
  }
  FeatureBlocks blocks;
  blocks.object_blocks = &cache.object_blocks();
  blocks.annotator_blocks = &cache.annotator_blocks();
  blocks.global_block = cache.global_block();

  QNetworkOptions q_options;
  q_options.seed = 77;
  QNetwork net(q_options);
  ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, false),
                 net.PredictBatch(features), "online");
  ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, true),
                 net.TargetPredictBatch(features), "target");

  // After parameter updates.
  Rng rng(5);
  std::vector<Transition> transitions;
  for (int t = 0; t < 8; ++t) {
    Transition tr;
    tr.features = features.RowVector(static_cast<size_t>(t));
    tr.reward = rng.Uniform();
    tr.next_max_q = rng.Uniform();
    tr.terminal = false;
    transitions.push_back(std::move(tr));
  }
  std::vector<const Transition*> batch;
  for (const Transition& tr : transitions) batch.push_back(&tr);
  for (int step = 0; step < 30; ++step) net.TrainBatch(batch);
  ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, false),
                 net.PredictBatch(features), "after training");
  ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, true),
                 net.TargetPredictBatch(features), "target after sync");

  // After block updates (new answers, new qualities).
  s.answers.Record(9, 2, 3);
  s.qualities[1] = 0.9;
  cache.Sync(s.View());
  for (size_t p = 0; p < pairs.size(); ++p) {
    cache.AssembleRowInto(pairs[p].object, pairs[p].annotator,
                          features.Row(p));
  }
  ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, false),
                 net.PredictBatch(features), "after block refresh");
}

// A feature-masked agent scores on the head too: its scores must match
// the masked dense forward (the agent's own masked Score() rows through
// PredictBatch) within the ULP bound.
TEST(FactorizedQHeadTest, FeatureMaskMatchesMaskedDenseForward) {
  Scenario s;
  s.RefreshProbs();
  s.answers.Record(2, 1, 0);
  std::vector<bool> mask(StateFeaturizer::kFeatureDim, true);
  mask[4] = false;
  mask[5] = false;
  mask[7] = false;
  mask[10] = false;

  DqnAgentOptions options = MakeOptions();
  options.feature_mask = mask;
  options.exploration = ExplorationMode::kGreedy;  // Scores are raw Q.
  DqnAgent agent(options);
  agent.BeginEpisode(kObjects, kAnnotators);
  ScoredCandidates got = agent.Score(s.View(), s.affordable);
  ASSERT_FALSE(got.actions.empty());
  for (size_t i = 0; i < got.features.rows(); ++i) {
    for (size_t f = 0; f < StateFeaturizer::kFeatureDim; ++f) {
      if (!mask[f]) {
        ASSERT_EQ(got.features.At(i, f), 0.0);
      }
    }
  }
  ExpectUlpClose(got.scores, agent.q_network().PredictBatch(got.features),
                 "masked");
}

TEST(FactorizedQHeadTest, AgentSelectsValidAssignments) {
  Scenario s;
  s.RefreshProbs();
  DqnAgent agent(MakeOptions());
  agent.BeginEpisode(kObjects, kAnnotators);
  for (int iter = 0; iter < 4; ++iter) {
    std::vector<Assignment> assignments =
        agent.SelectBatch(s.View(), /*k=*/2, /*num_objects_to_pick=*/3,
                          s.affordable);
    ASSERT_FALSE(assignments.empty());
    for (const Assignment& assignment : assignments) {
      for (int j : assignment.annotators) {
        s.answers.Record(assignment.object, j, s.rng.UniformInt(kClasses));
      }
    }
    agent.Observe(s.rng.Uniform(), s.View(), s.affordable,
                  /*terminal=*/false);
  }
}

// Zero-assembly pin: selection and the bootstrap score on the head, which
// reads the cached blocks, so SelectBatch and Observe assemble no
// candidate feature rows — untiled, tiled and feature-masked alike (the
// cache Sync still runs). Only Score() fills its public feature matrix.
TEST(FactorizedQHeadTest, SelectionAndBootstrapAssembleNoRows) {
  enum class Shape { kUntiled, kTiled, kMasked };
  for (Shape shape : {Shape::kUntiled, Shape::kTiled, Shape::kMasked}) {
    Scenario s;
    s.RefreshProbs();
    DqnAgentOptions options = MakeOptions();
    if (shape == Shape::kTiled) {
      options.hier_min_pairs = 0;
      options.hier_object_bucket = 8;
      options.hier_annotator_group = 4;
    }
    if (shape == Shape::kMasked) {
      options.feature_mask.assign(StateFeaturizer::kFeatureDim, true);
      options.feature_mask[3] = false;
    }
    DqnAgent agent(options);
    agent.BeginEpisode(kObjects, kAnnotators);
    ASSERT_EQ(agent.HierEngaged(), shape == Shape::kTiled);
    for (int iter = 0; iter < 3; ++iter) {
      std::vector<Assignment> assignments = agent.SelectBatch(
          s.View(), /*k=*/2, /*num_objects_to_pick=*/3, s.affordable);
      ASSERT_FALSE(assignments.empty());
      for (const Assignment& assignment : assignments) {
        for (int j : assignment.annotators) {
          s.answers.Record(assignment.object, j, s.rng.UniformInt(kClasses));
        }
      }
      agent.Observe(0.5, s.View(), s.affordable, /*terminal=*/false);
    }
    EXPECT_EQ(agent.rows_featurized(), 0u)
        << "shape " << static_cast<int>(shape);
    const ScoredCandidates scored = agent.Score(s.View(), s.affordable);
    EXPECT_EQ(agent.rows_featurized(), scored.actions.size())
        << "shape " << static_cast<int>(shape);
  }
}

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// Satellite pin for the RecordSyncMetrics rewrite: the exported hit/miss
// counters must follow the cache's own CumulativeStats — a full rebuild is
// 2n+m misses and zero hits (the old code credited every sync, rebuilds
// included, with `consulted = 2n+m` and clamped the overflow away).
TEST(IncrementalScoringTest, SyncMetricsMatchCacheCumulativeStats) {
  Scenario s;
  s.RefreshProbs();
  DqnAgent agent(MakeOptions());
  agent.BeginEpisode(kObjects, kAnnotators);

  obs::SetEnabled(true);
  obs::MetricsSnapshot before = obs::MetricsRegistry::Get().Snapshot();
  agent.Score(s.View(), s.affordable);  // Full rebuild.
  s.answers.Record(3, 1, 2);
  agent.Score(s.View(), s.affordable);  // Incremental: one object dirty.
  s.qualities[2] = 0.8;
  agent.Score(s.View(), s.affordable);  // Incremental: one annotator dirty.
  obs::MetricsSnapshot after = obs::MetricsRegistry::Get().Snapshot();
  obs::SetEnabled(false);

  const ScoreCache::CumulativeStats& cum =
      agent.score_cache().cumulative_stats();
  constexpr size_t kConsultedPerSync = 2 * kObjects + kAnnotators;
  // The cache's own accounting is self-consistent across rebuild +
  // incremental syncs...
  ASSERT_EQ(cum.syncs, 3u);
  ASSERT_EQ(cum.full_rebuilds, 1u);
  EXPECT_EQ(cum.block_hits + cum.block_misses,
            cum.syncs * kConsultedPerSync);
  // ...the rebuild contributed zero hits, so hits stay strictly below the
  // two incremental syncs' consultation budget...
  EXPECT_LE(cum.block_hits, 2 * kConsultedPerSync);
  EXPECT_GT(cum.block_hits, 0u);
  // ...and the exported counter deltas equal the cache totals exactly
  // (this agent is the only one scoring while obs is on).
  EXPECT_EQ(CounterValue(after, "crowdrl.scorecache.syncs") -
                CounterValue(before, "crowdrl.scorecache.syncs"),
            cum.syncs);
  EXPECT_EQ(CounterValue(after, "crowdrl.scorecache.block_hits") -
                CounterValue(before, "crowdrl.scorecache.block_hits"),
            cum.block_hits);
  EXPECT_EQ(CounterValue(after, "crowdrl.scorecache.block_misses") -
                CounterValue(before, "crowdrl.scorecache.block_misses"),
            cum.block_misses);
  EXPECT_EQ(CounterValue(after, "crowdrl.scorecache.full_rebuilds") -
                CounterValue(before, "crowdrl.scorecache.full_rebuilds"),
            cum.full_rebuilds);
}

void TrainNet(QNetwork* net, const Matrix& features, int steps, Rng* rng) {
  std::vector<Transition> transitions;
  for (int t = 0; t < 8; ++t) {
    Transition tr;
    tr.features = features.RowVector(static_cast<size_t>(t));
    tr.reward = rng->Uniform();
    tr.next_max_q = rng->Uniform();
    tr.terminal = false;
    transitions.push_back(std::move(tr));
  }
  std::vector<const Transition*> batch;
  for (const Transition& tr : transitions) batch.push_back(&tr);
  for (int step = 0; step < steps; ++step) net->TrainBatch(batch);
}

// The head forms its partial products from the current weights on every
// call, so it stays in ULP lockstep with the dense forward after every way
// the parameters can change — LoadState, SetFlatParameters, and both
// target-sync flavours (periodic hard sync and per-step soft tau).
TEST(FactorizedQHeadTest, RecomputesPartialsAfterParameterEvents) {
  Scenario s;
  s.RefreshProbs();
  s.answers.Record(1, 2, 0);
  StateView view = s.View();

  ScoreCache cache;
  cache.Sync(view);
  std::vector<Action> pairs;
  for (size_t i = 0; i < kObjects; ++i) {
    for (size_t j = 0; j < kAnnotators; ++j) {
      pairs.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  Matrix features(pairs.size(), StateFeaturizer::kFeatureDim);
  for (size_t p = 0; p < pairs.size(); ++p) {
    cache.AssembleRowInto(pairs[p].object, pairs[p].annotator,
                          features.Row(p));
  }
  FeatureBlocks blocks;
  blocks.object_blocks = &cache.object_blocks();
  blocks.annotator_blocks = &cache.annotator_blocks();
  blocks.global_block = cache.global_block();
  Rng rng(97);

  // Periodic hard target sync: train exactly up to the sync boundary —
  // the target partials must follow the swap.
  {
    QNetworkOptions q_options;
    q_options.seed = 41;
    q_options.target_sync_period = 4;
    QNetwork net(q_options);
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, true),
                   net.TargetPredictBatch(features), "warm target");
    TrainNet(&net, features, 4, &rng);
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, true),
                   net.TargetPredictBatch(features),
                   "target after periodic sync");
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, false),
                   net.PredictBatch(features), "online after training");
  }

  // Soft-tau sync: the target moves a little on every train step.
  {
    QNetworkOptions q_options;
    q_options.seed = 43;
    q_options.soft_tau = 0.25;
    QNetwork net(q_options);
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, true),
                   net.TargetPredictBatch(features), "warm soft target");
    TrainNet(&net, features, 1, &rng);
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, true),
                   net.TargetPredictBatch(features),
                   "target after soft-tau step");
  }

  // SetFlatParameters (cross-training transfer) rewrites the online net
  // and resets the target.
  {
    QNetworkOptions q_options;
    q_options.seed = 47;
    QNetwork net(q_options);
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, false),
                   net.PredictBatch(features), "warm before transfer");
    std::vector<double> params = net.FlatParameters();
    for (double& p : params) p += 1e-3;
    net.SetFlatParameters(params);
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, false),
                   net.PredictBatch(features), "online after transfer");
    ExpectUlpClose(net.PredictBatchFactorized(blocks, pairs, true),
                   net.TargetPredictBatch(features), "target after transfer");
  }

  // LoadState replaces every parameter of an already-warm network.
  {
    QNetworkOptions q_options;
    q_options.seed = 53;
    QNetwork source(q_options);
    TrainNet(&source, features, 7, &rng);
    QNetworkOptions sink_options = q_options;
    sink_options.seed = 59;  // Different init: params genuinely change.
    QNetwork sink(sink_options);
    ExpectUlpClose(sink.PredictBatchFactorized(blocks, pairs, false),
                   sink.PredictBatch(features), "warm before restore");
    io::Writer writer;
    source.SaveState(&writer);
    io::Reader reader(writer.bytes());
    ASSERT_TRUE(sink.LoadState(&reader).ok());
    ExpectUlpClose(sink.PredictBatchFactorized(blocks, pairs, false),
                   sink.PredictBatch(features), "online after restore");
    ExpectUlpClose(sink.PredictBatchFactorized(blocks, pairs, true),
                   sink.TargetPredictBatch(features), "target after restore");
    // And the restored factorized forward agrees with the source's.
    ExpectUlpClose(sink.PredictBatchFactorized(blocks, pairs, false),
                   source.PredictBatch(features), "restore vs source");
  }
}

}  // namespace
}  // namespace crowdrl::rl
