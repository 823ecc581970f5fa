// Selection against full scoring, and the gated engine's pruner
// (ShortlistPruner + DqnAgent::SelectBatch):
//  - untiled, SelectBatch's one exact full pass must select exactly what
//    Score + PickTopKSumAssignments selects, at every iteration of a
//    drifting run, including across checkpoint/resume, without ever
//    touching the pruner;
//  - over randomized tiled and untiled configurations, every selection
//    must equal full scoring (the tiled gate expands buckets, and scores
//    the whole grid, on any ambiguity);
//  - the pruner's bookkeeping: sensitivity adaptation and attribution,
//    boost dynamics;
//  - the ScoreCache drift accumulators the bounds are built from.

#include <vector>

#include <gtest/gtest.h>

#include "rl/dqn_agent.h"
#include "rl/score_cache.h"
#include "rl/shortlist.h"
#include "tests/testing/selection_lockstep.h"
#include "util/random.h"

namespace crowdrl::rl {
namespace {

using Scenario = testing::SelectionScenario;
constexpr size_t kObjects = Scenario::kObjects;
constexpr size_t kAnnotators = Scenario::kAnnotators;

// Core property on an untiled grid: SelectBatch must serve the same
// assignments as a twin driven through Score + PickTopKSumAssignments +
// Commit (and as its own full scoring, audited before every second
// SelectBatch), at every iteration of a drifting run, across a mid-run
// checkpoint/restore, over several seeds, with and without exactly tied
// annotators, at threads 1 and 8. The gated engine runs only on tiled
// grids (hierarchy_test.cc holds its lockstep), so here the pruner must
// never be consulted.
TEST(ShortlistPruningTest, AuditedPrunedRunMatchesFullScoringExactly) {
  for (int threads : {1, 8}) {
    testing::LockstepOutcome outcome;
    for (bool twins : {false, true}) {
      for (uint64_t seed : {907u, 1301u, 2203u}) {
        testing::LockstepConfig config;
        config.scenario_seed = seed;
        config.twins = twins;
        config.threads = threads;
        testing::RunAuditedLockstep(config, &outcome);
        ASSERT_FALSE(HasFatalFailure())
            << "seed " << seed << " twins " << twins << " threads "
            << threads;
      }
    }
    // On each side of the restore every selection was a full pass: the
    // pruner counted nothing and no tiling existed.
    for (const testing::LockstepStats* half :
         {&outcome.before, &outcome.after}) {
      const ShortlistPruner::Stats& stats = half->prune;
      EXPECT_EQ(stats.pruned_iterations, 0u);
      EXPECT_EQ(stats.full_iterations, 0u);
      EXPECT_EQ(stats.exact_rows, 0u);
      EXPECT_EQ(half->hier.iterations, 0u);  // Untiled.
    }
  }
}

// The same audited lockstep over randomized configurations — grid shape,
// tiled or not (random tile geometry), descent target, exploration mode,
// training rate, tied annotators, checkpoint point — with churn:
// objects get labelled, annotators flip affordability, and k and the pick
// count change every iteration. Every selection must equal full scoring.
// Beliefs are random here, so the tile bounds are loose and tiled
// selections nearly always fall back to full scoring (hierarchy_test.cc's
// smooth lockstep covers served ones).
TEST(ShortlistPruningTest, RandomizedConfigurationsMatchFullScoring) {
  Rng rng(2027);
  testing::LockstepOutcome outcome;
  for (int trial = 0; trial < 60; ++trial) {
    testing::LockstepConfig config;
    config.scenario_seed = 100 + static_cast<uint64_t>(trial);
    config.objects = 10 + static_cast<size_t>(rng.UniformInt(70));
    config.annotators = 3 + static_cast<size_t>(rng.UniformInt(14));
    config.twins = rng.Bernoulli(0.3);
    config.tiled = rng.Bernoulli(0.5);
    config.bucket = 2 + static_cast<size_t>(rng.UniformInt(15));
    config.group = 1 + static_cast<size_t>(rng.UniformInt(8));
    const size_t shortlists[] = {0, 4, 8, 16, 48, 100};
    config.shortlist = shortlists[rng.UniformInt(6)];
    config.exploration = rng.Bernoulli(0.3) ? ExplorationMode::kGreedy
                                            : ExplorationMode::kUcb;
    config.train_steps_per_observe = 1 + rng.UniformInt(8);
    config.iterations = 10 + rng.UniformInt(30);
    config.restore_after = rng.UniformInt(config.iterations);
    config.churn = true;
    testing::RunAuditedLockstep(config, &outcome);
    ASSERT_FALSE(HasFatalFailure()) << "trial " << trial;
  }
  for (const testing::LockstepStats* half :
       {&outcome.before, &outcome.after}) {
    EXPECT_GT(half->hier.iterations, 0u);
    EXPECT_EQ(half->hier.gated_iterations + half->hier.full_fallbacks,
              half->hier.iterations);
  }
}

// Epsilon-greedy consumes RNG inside Score, so the gated engine must stand
// down entirely, even on a tiled grid (a gated pass would desync the
// exploration stream).
TEST(ShortlistPruningTest, EpsilonGreedyAlwaysRunsFullPath) {
  Scenario s;
  testing::LockstepConfig config;
  config.tiled = true;  // hier_min_pairs = 0: would tile if eligible.
  DqnAgentOptions options = testing::LockstepOptions(config);
  options.exploration = ExplorationMode::kEpsilonGreedy;
  DqnAgent agent(options);
  agent.BeginEpisode(kObjects, kAnnotators);
  EXPECT_FALSE(agent.HierEngaged());
  for (int iter = 0; iter < 4; ++iter) {
    agent.SelectBatch(s.View(), /*k=*/2, /*num_objects_to_pick=*/3,
                      s.affordable);
  }
  const ShortlistPruner::Stats& stats = agent.shortlist_pruner().stats();
  EXPECT_EQ(stats.pruned_iterations, 0u);
  EXPECT_EQ(stats.full_iterations, 0u);  // Never even consulted.
}

// A move through one signal alone is that signal's to measure: one the
// current slack missed raises its sensitivity to twice the observed rate
// (2x headroom), so the adapted slack covers a same-sized move.
TEST(ShortlistPrunerTest, SensitivityAdaptsToObservedMoves) {
  ShortlistPruner pruner;
  pruner.BeginIteration();

  // Q moved by 0.5 with no drift and 10 elapsed train steps: the bound
  // can only blame training, so beta must grow to at least 2*0.5/10.
  const double alpha_before = pruner.alpha();
  const double beta_before = pruner.beta();
  pruner.ObserveMove(/*dq=*/0.5, /*drift=*/0.0, /*ticks=*/10.0);
  EXPECT_GE(pruner.beta(), 2.0 * 0.5 / 10.0);
  EXPECT_GE(pruner.beta(), beta_before);
  EXPECT_EQ(pruner.alpha(), alpha_before);  // Drift was not involved.
  // The adapted slack now covers a same-sized move over 20 steps.
  EXPECT_GE(pruner.beta() * 20.0, 0.5);

  // A drift-only move the slack missed: alpha takes it with headroom.
  pruner.ObserveMove(/*dq=*/0.6, /*drift=*/0.1, /*ticks=*/0.0);
  EXPECT_GE(pruner.alpha(), 2.0 * 0.6 / 0.1);
  // A covered move changes nothing.
  const double alpha = pruner.alpha();
  const double beta = pruner.beta();
  pruner.ObserveMove(/*dq=*/0.01, /*drift=*/0.1, /*ticks=*/0.0);
  pruner.ObserveMove(/*dq=*/0.01, /*drift=*/0.0, /*ticks=*/1.0);
  EXPECT_EQ(pruner.alpha(), alpha);
  EXPECT_EQ(pruner.beta(), beta);
  // The per-iteration decay shrinks both.
  pruner.BeginIteration();
  EXPECT_LT(pruner.alpha(), alpha);
  EXPECT_LT(pruner.beta(), beta);
}

// A sensitivity that has never measured a move bounds nothing: a move
// through both signals that the combined slack covers is charged whole to
// each sensitivity still unmeasured, since it may be all that signal. A
// measured sensitivity keeps its value, and a move the combined slack
// missed raises each sensitivity to cover it alone.
TEST(ShortlistPrunerTest, UnmeasuredSensitivityBoundsNothing) {
  // Training never measured: a covered two-signal move is all training's.
  ShortlistPruner fresh;
  fresh.ObserveMove(/*dq=*/0.3, /*drift=*/1.0, /*ticks=*/3.0);
  EXPECT_EQ(fresh.beta(), 0.3 / 3.0);
  EXPECT_EQ(fresh.alpha(), 1.0);  // Covers it: max(1, 0.3 / 1).

  // An unmoved rescore measures nothing more: beta stays unmeasured.
  ShortlistPruner unmoved;
  unmoved.ObserveMove(/*dq=*/0.0, /*drift=*/1.0, /*ticks=*/3.0);
  EXPECT_EQ(unmoved.beta(), 0.0);
  unmoved.ObserveMove(/*dq=*/0.3, /*drift=*/1.0, /*ticks=*/3.0);
  EXPECT_EQ(unmoved.beta(), 0.3 / 3.0);

  // Training measured by a covered training-only move: the same covered
  // two-signal move then leaves beta where it was.
  ShortlistPruner measured;
  measured.ObserveMove(/*dq=*/0.0, /*drift=*/0.0, /*ticks=*/3.0);
  EXPECT_EQ(measured.beta(), 0.0);
  measured.ObserveMove(/*dq=*/0.3, /*drift=*/1.0, /*ticks=*/3.0);
  EXPECT_EQ(measured.beta(), 0.0);
  EXPECT_EQ(measured.alpha(), 1.0);

  // Missed by the combined slack: each sensitivity covers it alone.
  measured.ObserveMove(/*dq=*/5.0, /*drift=*/1.0, /*ticks=*/2.0);
  EXPECT_EQ(measured.alpha(), 5.0);
  EXPECT_EQ(measured.beta(), 2.5);
}

// Outcome notes: a precheck violation is counted and breaks the success
// streak; the boost doubles on gate fallback (capped) and halves back only
// after a streak of gated successes.
TEST(ShortlistPrunerTest, BoundViolationIsReportedAndBoostReacts) {
  ShortlistPruner pruner;
  EXPECT_EQ(pruner.boost(), 1u);
  pruner.NoteGateFallback();
  EXPECT_EQ(pruner.boost(), 2u);
  pruner.NoteGateFallback();
  EXPECT_EQ(pruner.boost(), 4u);
  for (int i = 0; i < 7; ++i) pruner.NotePrunedSuccess(1);
  EXPECT_EQ(pruner.boost(), 4u);  // Streak not reached yet.
  pruner.NotePrecheckFallback();  // Restarts the streak.
  EXPECT_EQ(pruner.stats().precheck_fallbacks, 1u);
  pruner.NotePrunedSuccess(1);
  EXPECT_EQ(pruner.boost(), 4u);
  for (int i = 0; i < 7; ++i) pruner.NotePrunedSuccess(1);
  EXPECT_EQ(pruner.boost(), 2u);
  EXPECT_EQ(pruner.stats().gate_fallbacks, 2u);
  EXPECT_EQ(pruner.stats().pruned_iterations, 15u);
  for (int i = 0; i < 10; ++i) pruner.NoteGateFallback();
  EXPECT_EQ(pruner.boost(), 64u);  // Capped.
}

TEST(ScoreCacheDriftTest, AccumulatorsTrackBlockRefreshes) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());
  // Fresh rebuild: all drift zero.
  for (double d : cache.object_drift()) EXPECT_EQ(d, 0.0);
  for (double d : cache.annotator_drift()) EXPECT_EQ(d, 0.0);
  EXPECT_EQ(cache.global_drift(), 0.0);

  // One answered object: its history block refreshes, its drift grows,
  // everyone else's stays put.
  s.answers.Record(7, 3, 1);
  cache.Sync(s.View());
  EXPECT_GT(cache.object_drift()[7], 0.0);
  for (size_t i = 0; i < kObjects; ++i) {
    if (i != 7) {
      EXPECT_EQ(cache.object_drift()[i], 0.0) << "object " << i;
    }
  }

  // A quality change refreshes exactly that annotator's block.
  s.qualities[2] += 0.05;
  cache.Sync(s.View());
  EXPECT_GT(cache.annotator_drift()[2], 0.0);
  for (size_t j = 0; j < kAnnotators; ++j) {
    if (j != 2) {
      EXPECT_EQ(cache.annotator_drift()[j], 0.0);
    }
  }

  // Progress counters move the global block.
  s.fraction_labelled = 0.25;
  cache.Sync(s.View());
  EXPECT_GT(cache.global_drift(), 0.0);

  // Drift is monotone under further changes...
  double obj7 = cache.object_drift()[7];
  s.answers.Record(7, 4, 2);
  cache.Sync(s.View());
  EXPECT_GE(cache.object_drift()[7], obj7);

  // ...and resets wholesale on a full rebuild.
  cache.Invalidate();
  cache.Sync(s.View());
  for (double d : cache.object_drift()) EXPECT_EQ(d, 0.0);
  for (double d : cache.annotator_drift()) EXPECT_EQ(d, 0.0);
  EXPECT_EQ(cache.global_drift(), 0.0);
}

}  // namespace
}  // namespace crowdrl::rl
