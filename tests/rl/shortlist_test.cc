// Selection against full scoring, and the gated engine's pruner
// (ShortlistPruner + DqnAgent::SelectBatch):
//  - untiled, SelectBatch's one exact full pass must select exactly what
//    Score + PickTopKSumAssignments selects, at every iteration of a
//    drifting run, including across checkpoint/resume, without ever
//    touching the pruner;
//  - over randomized tiled and untiled configurations, every selection
//    must equal full scoring (the tiled gate climbs its ladder to full
//    scoring on any ambiguity);
//  - the pruner's bookkeeping: must-score first pass, table invalidation
//    on cache rebuild, bound soundness adaptation, boost dynamics;
//  - the ScoreCache drift accumulators the bounds are built from;
//  - the shortlist cut against a sort, and RecordExact on a pool against
//    the serial pass, at several chunkings.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "rl/dqn_agent.h"
#include "rl/score_cache.h"
#include "rl/shortlist.h"
#include "tests/testing/selection_lockstep.h"
#include "util/random.h"
#include "util/thread_pool.h"

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
// tiled or not (random tile geometry), shortlist size, exploration mode,
// training rate, tied annotators, checkpoint point — with churn:
// objects get labelled, annotators flip affordability (evicted from the
// gated agent on the way out), and k and the pick count change every
// iteration. Every selection must equal full scoring.
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
    EXPECT_GT(half->prune.pruned_iterations, 0u);
    EXPECT_GT(half->hier.gated_iterations, 0u);
    EXPECT_EQ(half->hier.gated_iterations + half->hier.full_fallbacks,
              half->hier.iterations);
  }
  EXPECT_GT(outcome.before.prune.gate_recoveries +
                outcome.after.prune.gate_recoveries,
            0u);
}

// Epsilon-greedy consumes RNG inside Score, so the gated engine must stand
// down entirely, even on a tiled grid (a shortlist pass would desync the
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

TEST(ShortlistPrunerTest, WarmupAndInvalidationLifecycle) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());

  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);

  std::vector<Action> pairs;
  for (size_t i = 0; i < kObjects; ++i) {
    for (size_t j = 0; j < kAnnotators; ++j) {
      pairs.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  std::vector<double> raw_q(pairs.size(), 0.0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    raw_q[p] = 0.001 * static_cast<double>(p);
  }
  std::vector<double> bonus(pairs.size(), 0.0);

  // A fresh table bounds nothing: every pair is must-score, so the first
  // gated selection of an episode scores the whole grid.
  std::vector<double> ub;
  pruner.BeginIteration(cache);
  EXPECT_EQ(pruner.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            pairs.size());
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, raw_q, nullptr,
                     nullptr);

  // With zero drift and zero elapsed train steps, every bound collapses
  // to stale_q + margin and none is infinite.
  EXPECT_EQ(pruner.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            0u);
  for (size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_GE(ub[p], raw_q[p]);
    EXPECT_LE(ub[p], raw_q[p] + pruner.margin() + 1e-15);
  }

  // A cache full rebuild resets the drift accumulators, so the next
  // BeginIteration must drop every stale entry: all bounds go infinite.
  cache.Invalidate();
  cache.Sync(s.View());
  ASSERT_EQ(cache.cumulative_stats().full_rebuilds, 1u);
  pruner.BeginIteration(cache);
  EXPECT_EQ(pruner.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            pairs.size());
  for (double b : ub) {
    EXPECT_TRUE(std::isinf(b));
  }
}

// The session-churn lifecycle (labelling service): when an annotator
// disconnects its column is evicted — those pairs come back as must-score
// (+inf bound) instead of carrying bounds snapshotted against a pool that
// no longer exists — and every other column is untouched.
TEST(ShortlistPrunerTest, EvictAnnotatorDropsOnlyThatColumn) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());

  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);

  std::vector<Action> pairs;
  for (size_t i = 0; i < kObjects; ++i) {
    for (size_t j = 0; j < kAnnotators; ++j) {
      pairs.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  std::vector<double> raw_q(pairs.size(), 0.0);
  std::vector<double> bonus(pairs.size(), 0.0);
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, raw_q, nullptr,
                     nullptr);

  std::vector<double> ub;
  ASSERT_EQ(pruner.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            0u);

  constexpr int kGone = 3;
  pruner.EvictAnnotator(kGone);
  EXPECT_EQ(pruner.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            kObjects);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (pairs[p].annotator == kGone) {
      EXPECT_TRUE(std::isinf(ub[p]));
    } else {
      EXPECT_FALSE(std::isinf(ub[p]));
    }
  }

  // Re-recording after a reconnect restores the column.
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, raw_q, nullptr,
                     nullptr);
  EXPECT_EQ(pruner.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            0u);

  // Evicting before the table is sized (fresh episode) is a safe no-op.
  ShortlistPruner unsized;
  unsized.EvictAnnotator(0);
}

TEST(ShortlistPrunerTest, SensitivityAdaptsToObservedMoves) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());
  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);

  std::vector<Action> pairs = {{0, 0}};
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, {1.0}, nullptr,
                     nullptr);

  // Q moved by 0.5 with no drift and 10 elapsed train steps: the bound
  // can only blame training, so beta must grow to at least 2*0.5/10.
  double beta_before = pruner.beta();
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/10, pairs, {1.5}, nullptr,
                     nullptr);
  EXPECT_GE(pruner.beta(), 2.0 * 0.5 / 10.0);
  EXPECT_GE(pruner.beta(), beta_before);

  // The adapted bound now covers a same-sized move.
  std::vector<double> ub;
  pruner.UpperBounds(cache, /*train_steps=*/20, pairs, {0.0}, &ub);
  EXPECT_GE(ub[0], 1.5 + 0.5);
}

// A sensitivity that has never measured a move bounds nothing: a pair that
// aged through training steps or feature drift before any rescore
// measured a move of that kind is must-score, and becomes boundable once
// one rescore has measured it. A rescore that aged through both signals
// measures only what it can be attributed to.
TEST(ShortlistPrunerTest, UnmeasuredSensitivityBoundsNothing) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());
  const std::vector<Action> pairs = {{0, 0}, {1, 1}};
  const std::vector<double> bonus = {0.0, 0.0};
  std::vector<double> ub;

  ShortlistPruner training{ShortlistOptions{}};
  training.Reset(kObjects, kAnnotators);
  training.BeginIteration(cache);
  training.RecordExact(cache, /*train_steps=*/0, pairs, {1.0, 2.0}, nullptr,
                       nullptr);
  EXPECT_EQ(training.UpperBounds(cache, /*train_steps=*/3, pairs, bonus, &ub),
            2u);
  // One rescore after training measures it, even a move already covered.
  training.RecordExact(cache, /*train_steps=*/3, {pairs[0]}, {1.0}, nullptr,
                       nullptr);
  EXPECT_EQ(training.UpperBounds(cache, /*train_steps=*/6, pairs, bonus, &ub),
            0u);

  ShortlistPruner drift{ShortlistOptions{}};
  drift.Reset(kObjects, kAnnotators);
  drift.BeginIteration(cache);
  drift.RecordExact(cache, /*train_steps=*/0, pairs, {1.0, 2.0}, nullptr,
                    nullptr);
  s.answers.Record(0, 3, 1);  // Object 0's history block drifts.
  cache.Sync(s.View());
  EXPECT_EQ(drift.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            1u);
  EXPECT_TRUE(std::isinf(ub[0]));
  drift.RecordExact(cache, /*train_steps=*/0, {pairs[0]}, {1.1}, nullptr,
                    nullptr);
  s.answers.Record(1, 4, 0);  // Now object 1 drifts: measured, so bounded.
  cache.Sync(s.View());
  EXPECT_EQ(drift.UpperBounds(cache, /*train_steps=*/0, pairs, bonus, &ub),
            0u);
  EXPECT_GE(ub[1], 2.0);

  // Mixed ages: pair 0 drifts and trains, pair 1 only trains.
  ShortlistPruner mixed{ShortlistOptions{}};
  mixed.Reset(kObjects, kAnnotators);
  mixed.BeginIteration(cache);
  mixed.RecordExact(cache, /*train_steps=*/0, pairs, {1.0, 2.0}, nullptr,
                    nullptr);
  s.answers.Record(0, 5, 2);
  cache.Sync(s.View());
  // An unmoved rescore of pair 0 is covered by drift slack alone, so it
  // says nothing about training: pair 1 stays must-score.
  mixed.RecordExact(cache, /*train_steps=*/3, {pairs[0]}, {1.0}, nullptr,
                    nullptr);
  EXPECT_EQ(mixed.beta(), 0.0);
  EXPECT_EQ(mixed.UpperBounds(cache, /*train_steps=*/3, pairs, bonus, &ub),
            1u);
  EXPECT_TRUE(std::isinf(ub[1]));
  // A move may be all training: the unmeasured sensitivity takes it whole,
  // and pair 1's bound then covers the same move over the same steps.
  s.answers.Record(0, 6, 0);
  cache.Sync(s.View());
  mixed.RecordExact(cache, /*train_steps=*/6, {pairs[0]}, {1.3}, nullptr,
                    nullptr);
  EXPECT_GE(mixed.beta(), 0.3 / 3.0);
  EXPECT_EQ(mixed.UpperBounds(cache, /*train_steps=*/9, pairs, bonus, &ub),
            0u);
  EXPECT_GE(ub[1], 2.0 + 0.3);
}

TEST(ShortlistPrunerTest, BoundViolationIsReportedAndBoostReacts) {
  Scenario s;
  ScoreCache cache;
  cache.Sync(s.View());
  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);
  std::vector<Action> pairs = {{0, 0}};
  pruner.BeginIteration(cache);
  pruner.RecordExact(cache, /*train_steps=*/0, pairs, {1.0}, nullptr,
                     nullptr);

  // Claim the pair was admitted under a bound of 1.0 but rescored to 2.0:
  // that is a precheck violation the caller must fall back on.
  std::vector<double> prior_ub = {1.0};
  std::vector<double> bonus = {0.0};
  pruner.BeginIteration(cache);
  EXPECT_EQ(pruner.RecordExact(cache, /*train_steps=*/1, pairs, {2.0},
                               &prior_ub, &bonus),
            1u);

  // Boost dynamics: doubles on gate fallback (capped), halves back only
  // after a streak of successes.
  EXPECT_EQ(pruner.boost(), 1u);
  pruner.NoteGateFallback();
  EXPECT_EQ(pruner.boost(), 2u);
  pruner.NoteGateFallback();
  EXPECT_EQ(pruner.boost(), 4u);
  for (int i = 0; i < 7; ++i) pruner.NotePrunedSuccess(1, 1);
  EXPECT_EQ(pruner.boost(), 4u);  // Streak not reached yet.
  pruner.NotePrunedSuccess(1, 1);
  EXPECT_EQ(pruner.boost(), 2u);
  EXPECT_EQ(pruner.stats().gate_fallbacks, 2u);
  EXPECT_EQ(pruner.stats().pruned_iterations, 8u);
}

TEST(ShortlistPrunerTest, ShortlistSizeHonoursFloorBoostAndMustScore) {
  ShortlistOptions options;  // Auto sizing.
  ShortlistPruner pruner(options);
  pruner.Reset(kObjects, kAnnotators);
  // Auto: max(256, pairs/16), clamped to the pair count.
  EXPECT_EQ(pruner.ShortlistSize(10000, 0), std::max<size_t>(256, 625));
  EXPECT_EQ(pruner.ShortlistSize(300, 0), 256u);  // Floor, below the grid.
  EXPECT_EQ(pruner.ShortlistSize(200, 0), 200u);  // Clamped to the grid.
  EXPECT_EQ(pruner.ShortlistSize(10000, 40), 665u);  // Must-score on top.

  ShortlistOptions fixed;
  fixed.shortlist = 64;
  ShortlistPruner small(fixed);
  small.Reset(kObjects, kAnnotators);
  EXPECT_EQ(small.ShortlistSize(10000, 0), 64u);
  small.NoteGateFallback();
  EXPECT_EQ(small.ShortlistSize(10000, 0), 128u);  // Boost doubles it.
}

// Bounds with the shapes the cut meets: exact ties within a tile, NaN and
// infinities, tight clusters beside far outliers (so one value class holds
// most of the grid and the cut refines), and plain spread values.
std::vector<double> CutBounds(Rng* rng, size_t n, int shape) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> ub(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng->Uniform();
    switch (shape) {
      case 0:  // Tiles: runs of one shared bound.
        ub[i] = static_cast<double>((i / 97) % 7) * 0.25;
        break;
      case 1:  // Specials among a few distinct values.
        ub[i] = u < 0.05   ? inf
                : u < 0.08 ? -inf
                : u < 0.10 ? std::numeric_limits<double>::quiet_NaN()
                : u < 0.12 ? -0.0
                : u < 0.14 ? 0.0
                           : static_cast<double>(rng->UniformInt(5));
        break;
      case 2:  // A tight cluster beside far outliers.
        ub[i] = u < 0.01 ? 1e6 * rng->Uniform() : 1.0 + 1e-9 * rng->Uniform();
        break;
      default:
        ub[i] = rng->Uniform(-3.0, 3.0);
    }
  }
  return ub;
}

// The cut takes the `size` unscored candidates first in (bound descending,
// index ascending), NaN ranking with +inf, and returns them in index
// order — at every chunking, on a pool or inline.
TEST(ShortlistCutTest, TakesTheFirstInBoundThenIndexOrderAtEveryChunking) {
  Rng rng(5171);
  ThreadPool pool(4);
  for (int trial = 0; trial < 160; ++trial) {
    const int shape = trial % 4;
    // Every fifth trial is large enough for the cut to refine a class.
    const size_t n = static_cast<size_t>(
        trial % 5 == 0 ? 20000 + rng.UniformInt(20000)
                       : 1 + rng.UniformInt(3000));
    const std::vector<double> ub = CutBounds(&rng, n, shape);
    std::vector<uint8_t> is_exact(n);
    std::vector<uint32_t> unscored;
    for (size_t i = 0; i < n; ++i) {
      is_exact[i] = rng.Bernoulli(0.2) ? 1 : 0;
      if (!is_exact[i]) unscored.push_back(static_cast<uint32_t>(i));
    }
    if (unscored.size() < 2) continue;
    const size_t size =
        1 + static_cast<size_t>(
                rng.UniformInt(static_cast<int>(unscored.size() - 1)));
    const auto rank = [&](uint32_t i) {
      return std::isnan(ub[i]) ? std::numeric_limits<double>::infinity()
                               : ub[i];
    };
    std::vector<uint32_t> want = unscored;
    std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
      return rank(a) > rank(b);
    });
    want.resize(size);
    std::sort(want.begin(), want.end());

    std::vector<size_t> random_chunks{0};
    while (random_chunks.back() < n) {
      random_chunks.push_back(std::min(
          n, random_chunks.back() + 1 + static_cast<size_t>(rng.UniformInt(
                                            static_cast<int>(n / 3 + 1)))));
    }
    const std::vector<size_t> chunkings[] = {
        {0, n}, EvenChunks(n, &pool, 1), random_chunks};
    for (const std::vector<size_t>& chunks : chunkings) {
      EXPECT_EQ(CutShortlist(&pool, chunks, ub, is_exact, size), want)
          << "trial " << trial << " chunks " << chunks.size() - 1;
      EXPECT_EQ(CutShortlist(nullptr, chunks, ub, is_exact, size), want)
          << "trial " << trial << " inline";
    }
  }
}

// RecordExact on a pool writes the same table and replays the same
// sensitivity moves as the serial pass: a rescore of a 3000 x 12 grid
// after feature drift and training steps leaves identical alpha, beta,
// violation counts and bounds at 1, 2 and 4 lanes.
TEST(ShortlistPrunerTest, PooledRecordExactMatchesTheSerialPass) {
  constexpr int kGridObjects = 3000;
  constexpr int kGridAnnotators = 12;
  std::vector<Action> pairs;
  for (int i = 0; i < kGridObjects; ++i) {
    for (int j = 0; j < kGridAnnotators; ++j) pairs.push_back({i, j});
  }
  Rng rng(77);
  std::vector<double> first(pairs.size());
  std::vector<double> second(pairs.size());
  std::vector<double> prior(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    first[p] = rng.Uniform(-1.0, 1.0);
    second[p] = first[p] + rng.Uniform(-0.3, 0.3);
    prior[p] = first[p] + 0.05;
  }
  const std::vector<double> bonus(pairs.size(), 0.1);

  struct Outcome {
    double alpha = 0.0;
    double beta = 0.0;
    size_t violations = 0;
    std::vector<double> ub;
  };
  const auto run = [&](int lanes) {
    ThreadPool pool(lanes);
    ThreadPool* const maybe_pool = lanes > 1 ? &pool : nullptr;
    Scenario local(/*seed=*/3301, /*twins=*/false, kGridObjects,
                   kGridAnnotators);
    ScoreCache cache;
    cache.Sync(local.View());
    ShortlistPruner pruner;
    pruner.Reset(kGridObjects, kGridAnnotators);
    pruner.BeginIteration(cache);
    pruner.RecordExact(cache, /*train_steps=*/0, pairs, first, nullptr,
                       nullptr, maybe_pool);
    local.NudgeProbs();
    local.qualities[3] += 0.05;
    cache.Sync(local.View());
    Outcome out;
    out.violations = pruner.RecordExact(cache, /*train_steps=*/3, pairs,
                                        second, &prior, &bonus, maybe_pool);
    out.alpha = pruner.alpha();
    out.beta = pruner.beta();
    pruner.UpperBounds(cache, /*train_steps=*/5, pairs, bonus, &out.ub);
    return out;
  };
  const Outcome serial = run(1);
  EXPECT_GT(serial.violations, 0u);
  EXPECT_GT(serial.alpha, 0.0);
  EXPECT_GT(serial.beta, 0.0);
  for (int lanes : {2, 4}) {
    const Outcome pooled = run(lanes);
    EXPECT_EQ(pooled.alpha, serial.alpha) << "lanes " << lanes;
    EXPECT_EQ(pooled.beta, serial.beta) << "lanes " << lanes;
    EXPECT_EQ(pooled.violations, serial.violations) << "lanes " << lanes;
    EXPECT_EQ(pooled.ub, serial.ub) << "lanes " << lanes;
  }
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
