// Memory of the tiled gate. A fresh tiled agent whose first selection
// expands every live bucket scores every valid pair of its grid, yet the
// gate keeps only per-object state: the largest single heap allocation
// made inside that SelectBatch stays below 2 bytes per pair, and doubling
// the annotators (and so the pairs) does not double it. A per-pair
// candidate array — 8 bytes per pair for the actions alone — fails both.
//
// This binary replaces the global allocator
// (tests/testing/counting_new.h), so it holds nothing else.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "rl/dqn_agent.h"
#include "tests/testing/counting_new.h"
#include "tests/testing/selection_lockstep.h"

namespace crowdrl::rl {
namespace {

constexpr size_t kObjects = 16384;

struct FirstSelection {
  size_t pairs = 0;
  size_t largest_allocation = 0;
};

// The first SelectBatch of a fresh agent on select-hier's landscape,
// tiled in the default 1024 x 128 tiles, with a descent target that
// covers the whole grid.
FirstSelection RunFirstSelection(size_t annotators) {
  testing::SelectionScenario s(/*seed=*/31, /*twins=*/false, kObjects,
                               annotators, /*smooth=*/true);
  DqnAgentOptions options;
  options.hier_min_pairs = 0;
  options.prune_shortlist = kObjects * annotators;
  DqnAgent agent(options);
  agent.BeginEpisode(kObjects, annotators);
  EXPECT_TRUE(agent.HierEngaged());

  testing::ResetLargestAllocation();
  const std::vector<Assignment> got =
      agent.SelectBatch(s.View(), /*k=*/3, /*num_objects_to_pick=*/32,
                        s.affordable);
  FirstSelection out;
  out.largest_allocation = testing::LargestAllocation();
  out.pairs = kObjects * annotators;

  EXPECT_EQ(got.size(), 32u);
  const DqnAgent::HierStats& stats = agent.hier_stats();
  EXPECT_EQ(stats.expanded_buckets, stats.live_buckets);
  EXPECT_EQ(stats.scored_pairs, out.pairs);
  return out;
}

TEST(GateFootprintTest, FirstSelectionHoldsNoPerPairArray) {
  const FirstSelection narrow = RunFirstSelection(/*annotators=*/64);
  const FirstSelection wide = RunFirstSelection(/*annotators=*/128);
  EXPECT_LT(narrow.largest_allocation, narrow.pairs * 2);
  EXPECT_LT(wide.largest_allocation, wide.pairs * 2);
  EXPECT_LT(wide.largest_allocation, 2 * narrow.largest_allocation);
}

}  // namespace
}  // namespace crowdrl::rl
