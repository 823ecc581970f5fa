// Tiled gated selection (BucketHierarchy + DqnAgent::SelectBatch at
// scale):
//  - on a tiled grid the gated engine must select exactly what full
//    enumeration + scoring selects, at every iteration of a randomized
//    drifting run, including across checkpoint/resume, at thread counts 1
//    and 8 (every second SelectBatch is additionally audited against the
//    agent's own full scoring);
//  - every tiled selection is counted exactly once, as gated or as a full
//    fallback, through the end of an episode;
//  - the bucket x group tiling's bookkeeping: ranges, liveness, tile
//    records, bound monotonicity, invalidation on cache rebuild;
//  - the default hier_min_pairs threshold keeps small grids untiled.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rl/dqn_agent.h"
#include "rl/hierarchy.h"
#include "rl/score_cache.h"
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

  // Non-vacuity on each side of the restore (the restored agent's stats
  // cover its own 12 selections per run): the gate served tiled selections
  // (not only full fallbacks) with bounded rows genuinely skipped, tile
  // representatives were refreshed, and the descent expanded no more than
  // the live buckets. Some gate failures were resolved before the last
  // rung.
  for (const testing::LockstepStats* half :
       {&outcome.before, &outcome.after}) {
    const DqnAgent::HierStats& stats = half->hier;
    EXPECT_EQ(stats.iterations, 6u * 12u);
    EXPECT_EQ(stats.gated_iterations + stats.full_fallbacks,
              stats.iterations);
    EXPECT_GT(stats.gated_iterations, 0u);
    EXPECT_GT(stats.rep_refreshes, 0u);
    EXPECT_GT(stats.scored_pairs, 0u);
    EXPECT_LE(stats.expanded_buckets, stats.live_buckets);
    EXPECT_GT(half->prune.bounded_rows, 0u);
  }
  EXPECT_GT(outcome.before.prune.gate_recoveries +
                outcome.after.prune.gate_recoveries,
            0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, HierarchicalSelectionTest,
                         ::testing::Values(1, 8));

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

  ShortlistPruner pruner{ShortlistOptions{}};
  pruner.Reset(kObjects, kAnnotators);
  pruner.BeginIteration(cache);

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
  pruner.BeginIteration(cache);
  hierarchy.BeginIteration(cache, s.labelled, s.affordable);
  EXPECT_TRUE(std::isinf(
      hierarchy.TileBound(0, 0, cache, pruner, /*train_steps=*/0, 0.0)));
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
