// Tiled gated selection (BucketHierarchy + DqnAgent::SelectBatch at
// scale):
//  - on a tiled grid the gated engine must select exactly what full
//    enumeration + scoring selects, at every iteration of a randomized
//    drifting run, including across checkpoint/resume, at thread counts 1
//    and 8 (every second SelectBatch is additionally audited against the
//    agent's own full scoring);
//  - on select-hier's index-smooth landscape the gate serves selections
//    while live buckets stay unexpanded, serves others after expanding
//    the buckets that failed its gate, and still equals full scoring;
//  - every tiled selection is counted exactly once, as gated or as a full
//    fallback, through the end of an episode;
//  - the bucket x group tiling's bookkeeping: ranges, liveness, tile
//    records, bound monotonicity, invalidation on cache rebuild, and the
//    alpha adaptation after an exact score beats its tile bound;
//  - the default hier_min_pairs threshold keeps small grids untiled;
//  - the gate's scoring pass runs in chunks on the Q pool, so a churned
//    tiled run on the smooth landscape selects, counts, adapts and
//    checkpoints identically at 1, 2 and 4 lanes;
//  - at the pruned-selection micro row's shape (2048 x 40 in 64 x 8
//    tiles, 4 lanes) the gated agent equals full scoring every iteration.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rl/dqn_agent.h"
#include "rl/hierarchy.h"
#include "rl/score_cache.h"
#include "io/serializer.h"
#include "rl/shortlist.h"
#include "tests/testing/selection_lockstep.h"
#include "util/random.h"

namespace crowdrl::rl {
namespace {

using Scenario = testing::SelectionScenario;
constexpr size_t kObjects = Scenario::kObjects;
constexpr size_t kAnnotators = Scenario::kAnnotators;

class HierarchicalSelectionTest : public ::testing::TestWithParam<int> {};

// Core property: the tiled agent must serve the same assignments as
// its own full scoring and as a full-scoring twin at every iteration of a
// drifting run, including across a mid-run checkpoint/restore, over
// several seeds, with and without exactly tied annotators, and the runs
// must not be vacuous.
TEST_P(HierarchicalSelectionTest, AuditedRunMatchesFullScoringExactly) {
  testing::LockstepOutcome outcome;
  for (bool twins : {false, true}) {
    for (uint64_t seed : {907u, 1301u, 2203u}) {
      testing::LockstepConfig config;
      config.scenario_seed = seed;
      config.twins = twins;
      config.tiled = true;
      config.threads = GetParam();
      testing::RunAuditedLockstep(config, &outcome);
      ASSERT_FALSE(HasFatalFailure()) << "seed " << seed << " twins " << twins;
    }
  }

  // On each side of the restore (the restored agent's stats cover its own
  // 12 selections per run) every selection was counted once, tile
  // representatives were refreshed, and the descent expanded no more than
  // the live buckets. Random beliefs leave the tile bounds too loose to
  // serve a selection, so these runs prove the full-scoring fallback;
  // SmoothLandscapeServesAndRecoversSelections covers served ones.
  for (const testing::LockstepStats* half :
       {&outcome.before, &outcome.after}) {
    const DqnAgent::HierStats& stats = half->hier;
    EXPECT_EQ(stats.iterations, 6u * 12u);
    EXPECT_EQ(stats.gated_iterations + stats.full_fallbacks,
              stats.iterations);
    EXPECT_GT(stats.rep_refreshes, 0u);
    EXPECT_GT(stats.scored_pairs, 0u);
    EXPECT_LE(stats.expanded_buckets, stats.live_buckets);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, HierarchicalSelectionTest,
                         ::testing::Values(1, 8));

// select-hier's landscape at 4096 x 32 in 256 x 8 tiles, with
// bench/scale_stress's agent options, k = 3 and 32 picks: 16 selections
// against a full-scoring twin (and every second one against the agent's
// own full scoring), across a checkpoint/restore. Neighbouring pairs
// score alike here, so the tile bounds are tight enough for the gate to
// serve selections while live buckets stay unexpanded.
testing::LockstepConfig SmoothConfig(int threads) {
  testing::LockstepConfig config;
  config.smooth = true;
  config.objects = 4096;
  config.annotators = 32;
  config.tiled = true;
  config.bucket = 256;
  config.group = 8;
  config.shortlist = 0;
  config.k = 3;
  config.picks = 32;
  config.iterations = 16;
  config.threads = threads;
  return config;
}

TEST(HierarchicalSelectionTest, SmoothLandscapeServesAndRecoversSelections) {
  testing::LockstepOutcome outcome;
  testing::RunAuditedLockstep(SmoothConfig(/*threads=*/1), &outcome);
  ASSERT_FALSE(HasFatalFailure());
  const DqnAgent::HierStats& before = outcome.before.hier;
  const DqnAgent::HierStats& after = outcome.after.hier;
  EXPECT_EQ(before.iterations + after.iterations, 16u);
  EXPECT_GT(outcome.before.served_unexpanded + outcome.after.served_unexpanded,
            0u);
  EXPECT_LE(before.expanded_buckets, before.live_buckets);

  // Twice the objects in one annotator group: the restored agent's gate
  // fails, expands the buckets whose bounds reach the cutoff, scores only
  // those, and then serves (2 of its 4 selections).
  testing::LockstepConfig wide = SmoothConfig(/*threads=*/1);
  wide.objects = 8192;
  wide.group = wide.annotators;
  testing::LockstepOutcome recovered;
  testing::RunAuditedLockstep(wide, &recovered);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(recovered.after.prune.gate_recoveries, 0u);
  EXPECT_GT(recovered.after.hier.rounds, recovered.after.hier.iterations);
}

// HierStats accounting: every tiled selection counts once, as gated or as
// a full fallback — including the empty selections once every object is
// labelled (no live bucket left).
TEST(HierarchicalSelectionTest, EveryIterationCountsOnceThroughFullLabelling) {
  Scenario s;
  testing::LockstepConfig config;
  config.tiled = true;
  DqnAgent agent(testing::LockstepOptions(config));
  agent.BeginEpisode(kObjects, kAnnotators);
  size_t selections = 0;
  size_t labelled = 0;
  while (labelled < kObjects) {
    ASSERT_LT(selections, kObjects) << "labelling did not progress";
    std::vector<Assignment> got = agent.SelectBatch(
        s.View(), /*k=*/2, /*num_objects_to_pick=*/4, s.affordable);
    ++selections;
    ASSERT_FALSE(got.empty());
    for (const Assignment& assignment : got) {
      for (int j : assignment.annotators) {
        s.answers.Record(assignment.object, j,
                         s.rng.UniformInt(Scenario::kClasses));
      }
      s.labelled[static_cast<size_t>(assignment.object)] = true;
      ++labelled;
    }
    s.fraction_labelled =
        static_cast<double>(labelled) / static_cast<double>(kObjects);
    agent.Observe(s.rng.Uniform(), s.View(), s.affordable,
                  /*terminal=*/false);
  }
  for (int extra = 0; extra < 2; ++extra) {
    EXPECT_TRUE(agent
                    .SelectBatch(s.View(), /*k=*/2, /*num_objects_to_pick=*/4,
                                 s.affordable)
                    .empty());
    ++selections;
  }
  const DqnAgent::HierStats& stats = agent.hier_stats();
  EXPECT_EQ(stats.iterations, selections);
  EXPECT_EQ(stats.gated_iterations + stats.full_fallbacks, stats.iterations);
}

// The default hier_min_pairs keeps small grids (every existing workload)
// untiled: no tiling, no behavior change.
TEST(HierarchicalSelectionTest, SmallGridStaysOnFlatPathByDefault) {
  Scenario s;
  DqnAgentOptions options;  // Defaults: threshold 2^22 pairs.
  DqnAgent agent(options);
  agent.BeginEpisode(kObjects, kAnnotators);
  EXPECT_FALSE(agent.HierEngaged());
  agent.SelectBatch(s.View(), /*k=*/2, /*num_objects_to_pick=*/3,
                    s.affordable);
  EXPECT_EQ(agent.hier_stats().iterations, 0u);
}

// Everything one tiled run leaves behind that the lane count could touch.
struct LaneRun {
  std::vector<std::vector<Assignment>> selections;
  std::vector<double> alpha;  // After every selection.
  std::vector<double> beta;
  DqnAgent::HierStats hier;
  ShortlistPruner::Stats prune;
  size_t served_unexpanded = 0;  // Served with a live bucket unexpanded.
  std::string state;             // SaveState bytes at the end.
};

// One churned tiled run on the smooth landscape's 4096 x 32 grid in
// 256 x 8 tiles: the descent starts from one 8,192-pair bucket, and
// offender expansions and full fallbacks score many buckets, whose
// chunks spread over 2 and 4 lanes. Annotators flip affordability and
// objects get labelled along the way. Served gates, offender expansions
// and full fallbacks all occur.
LaneRun RunTiledAtLanes(int lanes) {
  const testing::LockstepConfig config = SmoothConfig(lanes);
  Scenario s(/*seed=*/4409, /*twins=*/false, config.objects,
             config.annotators, /*smooth=*/true);
  DqnAgent agent(testing::LockstepOptions(config));
  agent.BeginEpisode(config.objects, config.annotators);
  LaneRun run;
  for (int iter = 0; iter < 12; ++iter) {
    s.budget_fraction = std::max(0.0, s.budget_fraction - 0.02);
    if (s.rng.Bernoulli(0.3)) {
      const int j = s.rng.UniformInt(static_cast<int>(config.annotators));
      s.affordable[static_cast<size_t>(j)] =
          !s.affordable[static_cast<size_t>(j)];
    }
    for (int labels = s.rng.UniformInt(64); labels > 0; --labels) {
      s.labelled[static_cast<size_t>(
          s.rng.UniformInt(static_cast<int>(config.objects)))] = true;
    }
    const DqnAgent::HierStats prior = agent.hier_stats();
    run.selections.push_back(
        agent.SelectBatch(s.View(), config.k, config.picks, s.affordable));
    const DqnAgent::HierStats& now = agent.hier_stats();
    if (now.gated_iterations > prior.gated_iterations &&
        now.expanded_buckets - prior.expanded_buckets <
            now.live_buckets - prior.live_buckets) {
      ++run.served_unexpanded;
    }
    run.alpha.push_back(agent.shortlist_pruner().alpha());
    run.beta.push_back(agent.shortlist_pruner().beta());
    for (const Assignment& assignment : run.selections.back()) {
      for (int j : assignment.annotators) {
        s.answers.Record(assignment.object, j,
                         s.rng.UniformInt(Scenario::kClasses));
      }
    }
    s.fraction_labelled = std::min(1.0, s.fraction_labelled + 0.01);
    agent.Observe(s.rng.Uniform(), s.View(), s.affordable,
                  /*terminal=*/false);
  }
  run.hier = agent.hier_stats();
  run.prune = agent.shortlist_pruner().stats();
  io::Writer writer;
  agent.SaveState(&writer);
  run.state = writer.bytes();
  return run;
}

TEST(GateLaneInvarianceTest, TiledRunIsIdenticalAtOneTwoAndFourLanes) {
  const LaneRun serial = RunTiledAtLanes(1);
  // Not vacuous: the gate served selections while live buckets stayed
  // unexpanded, failed and expanded offending buckets (a second scoring
  // round), and fell back to full scoring at least once.
  EXPECT_GT(serial.served_unexpanded, 0u);
  EXPECT_GT(serial.hier.full_fallbacks, 0u);
  EXPECT_GT(serial.prune.gate_fallbacks, 0u);
  EXPECT_GT(serial.hier.rounds, serial.hier.iterations);
  // Several 8,192-pair chunks per selection on average.
  EXPECT_GT(serial.hier.scored_pairs, serial.hier.iterations * 4 * 8192);
  for (int lanes : {2, 4}) {
    const LaneRun run = RunTiledAtLanes(lanes);
    ASSERT_EQ(run.selections.size(), serial.selections.size());
    for (size_t iter = 0; iter < run.selections.size(); ++iter) {
      testing::ExpectSameAssignments(run.selections[iter],
                                     serial.selections[iter],
                                     static_cast<int>(iter));
      ASSERT_FALSE(HasFatalFailure()) << "lanes " << lanes;
    }
    EXPECT_EQ(run.alpha, serial.alpha) << "lanes " << lanes;
    EXPECT_EQ(run.beta, serial.beta) << "lanes " << lanes;
    EXPECT_EQ(run.hier.iterations, serial.hier.iterations);
    EXPECT_EQ(run.hier.gated_iterations, serial.hier.gated_iterations);
    EXPECT_EQ(run.hier.full_fallbacks, serial.hier.full_fallbacks);
    EXPECT_EQ(run.hier.rounds, serial.hier.rounds);
    EXPECT_EQ(run.hier.scored_pairs, serial.hier.scored_pairs);
    EXPECT_EQ(run.hier.enumerated_pairs, serial.hier.enumerated_pairs);
    EXPECT_EQ(run.hier.rep_refreshes, serial.hier.rep_refreshes);
    EXPECT_EQ(run.hier.expanded_buckets, serial.hier.expanded_buckets);
    EXPECT_EQ(run.hier.live_buckets, serial.hier.live_buckets);
    EXPECT_EQ(run.prune.pruned_iterations, serial.prune.pruned_iterations);
    EXPECT_EQ(run.prune.full_iterations, serial.prune.full_iterations);
    EXPECT_EQ(run.prune.gate_fallbacks, serial.prune.gate_fallbacks);
    EXPECT_EQ(run.prune.precheck_fallbacks, serial.prune.precheck_fallbacks);
    EXPECT_EQ(run.prune.gate_recoveries, serial.prune.gate_recoveries);
    EXPECT_EQ(run.prune.exact_rows, serial.prune.exact_rows);
    EXPECT_EQ(run.served_unexpanded, serial.served_unexpanded);
    EXPECT_TRUE(run.state == serial.state) << "lanes " << lanes;
  }
}

// The pruned-selection row of bench/micro_components' BENCH_scoring.json
// as a test: its 2048 x 40 grid in 64 x 8 tiles with the auto descent
// target, the gated agent against a full-scoring twin every iteration (and
// against its own full scoring every second one), on 4 lanes, across a
// checkpoint/restore.
TEST(HierarchicalSelectionTest, MicroRowShapeMatchesFullScoringOnFourLanes) {
  testing::LockstepOutcome outcome;
  testing::LockstepConfig config;
  config.objects = 2048;
  config.annotators = 40;
  config.tiled = true;
  config.bucket = 64;
  config.group = 8;
  config.shortlist = 0;
  config.threads = 4;
  config.iterations = 10;
  config.restore_after = 4;
  testing::RunAuditedLockstep(config, &outcome);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(outcome.before.hier.iterations + outcome.after.hier.iterations,
            10u);
}

TEST(BucketHierarchyTest, RangesPartitionTheGrid) {
  BucketHierarchy hierarchy;
  HierarchyOptions options;
  options.object_bucket = 8;
  options.annotator_group = 4;
  hierarchy.Reset(/*num_objects=*/21, /*num_annotators=*/10, options);
  EXPECT_EQ(hierarchy.num_buckets(), 3u);  // 8 + 8 + 5.
  EXPECT_EQ(hierarchy.num_groups(), 3u);   // 4 + 4 + 2.

  size_t covered = 0;
  for (size_t b = 0; b < hierarchy.num_buckets(); ++b) {
    const auto [begin, end] = hierarchy.BucketRange(b);
    EXPECT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(hierarchy.BucketOf(static_cast<int>(i)), b);
    }
    covered += end - begin;
  }
  EXPECT_EQ(covered, 21u);
  const auto [last_begin, last_end] = hierarchy.GroupRange(2);
  EXPECT_EQ(last_begin, 8u);
  EXPECT_EQ(last_end, 10u);  // Ragged tail group.
}

// Tile bounds: a freshly recorded representative yields a finite bound
// covering its own q plus the tile's spatial span; unseen tiles are
// +infinity (must-refresh); a cache full rebuild invalidates every record.
TEST(BucketHierarchyTest, TileRecordLifecycleAndBoundCoverage) {
  Scenario s;
  ScoreCache cache;
  constexpr size_t kBucket = 8;
  cache.ConfigureObjectBuckets(kBucket);
  cache.Sync(s.View());
  cache.RefreshBucketBoxes();

  HierarchyOptions options;
  options.object_bucket = kBucket;
  options.annotator_group = 4;
  BucketHierarchy hierarchy;
  hierarchy.Reset(kObjects, kAnnotators, options);
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);

  // Everything unlabelled and affordable: all buckets and groups live.
  for (size_t b = 0; b < hierarchy.num_buckets(); ++b) {
    EXPECT_TRUE(hierarchy.BucketLive(b));
    EXPECT_EQ(hierarchy.bucket_unlabelled(b),
              hierarchy.BucketRange(b).second - hierarchy.BucketRange(b).first);
  }

  ShortlistPruner pruner;
  pruner.BeginIteration();

  // All live tiles start stale.
  std::vector<std::pair<size_t, size_t>> tiles;
  std::vector<Action> reps;
  hierarchy.CollectStaleReps(cache, /*train_steps=*/0, &tiles, &reps);
  EXPECT_EQ(tiles.size(), hierarchy.num_buckets() * hierarchy.num_groups());
  EXPECT_TRUE(std::isinf(
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.0)));

  constexpr double kRepQ = 0.25;
  hierarchy.RecordRep(0, 0, kRepQ, cache, /*train_steps=*/0, &pruner);
  const double bound =
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.0);
  EXPECT_FALSE(std::isinf(bound));
  // No drift or elapsed steps: the bound is q + alpha * (bucket + group
  // width) + margin, which must cover the representative itself.
  EXPECT_GE(bound, kRepQ);
  // A bonus shifts the bound additively.
  EXPECT_DOUBLE_EQ(
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.5),
      bound + 0.5);
  // BucketBound is the max over live groups; with only tile (0,0)
  // recorded the other groups are still infinite.
  EXPECT_TRUE(std::isinf(
      hierarchy.BucketBound(0, cache, pruner, /*train_steps=*/0, 0.0)));

  tiles.clear();
  reps.clear();
  hierarchy.CollectStaleReps(cache, /*train_steps=*/0, &tiles, &reps);
  EXPECT_EQ(tiles.size(),
            hierarchy.num_buckets() * hierarchy.num_groups() - 1);

  // A full cache rebuild resets the drift origins: the next iteration
  // must drop every record.
  cache.Invalidate();
  cache.Sync(s.View());
  cache.RefreshBucketBoxes();
  pruner.BeginIteration();
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);
  EXPECT_TRUE(std::isinf(
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.0)));
}

// The gate's precheck: an exact score above the tile bound it was admitted
// under is replayed against the tile's record, and alpha rises until the
// recomputed bound covers that score — in the same iteration and after
// training steps alike (beta then shares the blame). A score the bound
// already covers moves nothing.
TEST(BucketHierarchyTest, TileViolationRaisesAlphaUntilTheBoundCovers) {
  Scenario s;
  ScoreCache cache;
  constexpr size_t kBucket = 8;
  cache.ConfigureObjectBuckets(kBucket);
  cache.Sync(s.View());
  cache.RefreshBucketBoxes();
  HierarchyOptions options;
  options.object_bucket = kBucket;
  options.annotator_group = 4;
  BucketHierarchy hierarchy;
  hierarchy.Reset(kObjects, kAnnotators, options);
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);

  ShortlistPruner pruner;
  pruner.BeginIteration();
  constexpr double kRepQ = 0.25;
  constexpr double kBonus = 0.125;
  hierarchy.RecordRep(1, 2, kRepQ, cache, /*train_steps=*/0, &pruner);
  const double alpha = pruner.alpha();
  const double bound =
      hierarchy.TileBound(1, 2, cache, pruner, /*train_steps=*/0, kBonus);
  ASSERT_FALSE(std::isinf(bound));

  // Covered: nothing moves.
  hierarchy.ObserveTileViolation(1, 2, bound - kBonus - 1e-3, cache,
                                 /*train_steps=*/0, &pruner);
  EXPECT_EQ(pruner.alpha(), alpha);

  // Beaten by a wide margin, with no training since the record: alpha
  // alone must grow to cover it.
  const double beaten = bound - kBonus + 3.0;
  hierarchy.ObserveTileViolation(1, 2, beaten, cache, /*train_steps=*/0,
                                 &pruner);
  EXPECT_GT(pruner.alpha(), alpha);
  EXPECT_EQ(pruner.beta(), 0.0);
  EXPECT_GE(
      hierarchy.TileBound(1, 2, cache, pruner, /*train_steps=*/0, kBonus),
      beaten + kBonus);

  // Beaten again after five train steps: alpha and beta each rise to
  // cover the move alone, and the recomputed bound covers the score.
  const double alpha_before = pruner.alpha();
  const double later =
      hierarchy.TileBound(1, 2, cache, pruner, /*train_steps=*/5, kBonus) -
      kBonus + 10.0;
  hierarchy.ObserveTileViolation(1, 2, later, cache, /*train_steps=*/5,
                                 &pruner);
  EXPECT_GT(pruner.alpha(), alpha_before);
  EXPECT_GT(pruner.beta(), 0.0);
  EXPECT_GE(
      hierarchy.TileBound(1, 2, cache, pruner, /*train_steps=*/5, kBonus),
      later + kBonus);
}

// Liveness: labelled objects and unaffordable annotators drop out of the
// tallies, and a fully labelled bucket / fully unaffordable group goes
// dead (the descent never expands or bounds it).
TEST(BucketHierarchyTest, LivenessTracksLabelsAndAffordability) {
  Scenario s;
  ScoreCache cache;
  constexpr size_t kBucket = 8;
  cache.ConfigureObjectBuckets(kBucket);
  cache.Sync(s.View());
  cache.RefreshBucketBoxes();

  HierarchyOptions options;
  options.object_bucket = kBucket;
  options.annotator_group = 4;
  BucketHierarchy hierarchy;
  hierarchy.Reset(kObjects, kAnnotators, options);

  for (size_t i = 0; i < kBucket; ++i) s.labelled[i] = true;  // Bucket 0.
  s.labelled[kBucket] = true;  // One object of bucket 1.
  for (size_t j = 8; j < kAnnotators; ++j) s.affordable[j] = false;  // Grp 2.
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);

  EXPECT_FALSE(hierarchy.BucketLive(0));
  EXPECT_TRUE(hierarchy.BucketLive(1));
  EXPECT_EQ(hierarchy.bucket_unlabelled(1), kBucket - 1);
  EXPECT_TRUE(hierarchy.GroupLive(0));
  EXPECT_FALSE(hierarchy.GroupLive(2));
}

}  // namespace
}  // namespace crowdrl::rl
