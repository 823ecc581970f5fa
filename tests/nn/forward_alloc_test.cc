// Heap allocations of a warm blocked forward. A counting global operator
// new (tests/testing/counting_new.h) sees every allocation of the
// process; with no pool the forward runs on the calling thread, so the
// count between two points is the forward's own. A warm call may allocate
// per call (its result, its weight slices) but never per 256-row block:
// the same call must make as many allocations at 4,096 rows as at
// 409,600.
//
// This binary replaces the global allocator, so it holds nothing else.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "math/matrix.h"
#include "nn/activation.h"
#include "nn/mlp.h"
#include "rl/action.h"
#include "rl/q_network.h"
#include "rl/score_cache.h"
#include "rl/state.h"
#include "tests/testing/counting_new.h"
#include "tests/testing/selection_lockstep.h"
#include "util/random.h"

namespace crowdrl {
namespace {

constexpr size_t kSmallRows = 4096;
constexpr size_t kLargeRows = 409600;

// Allocations made by one call of `fn`.
template <typename Fn>
size_t AllocationsOf(Fn&& fn) {
  const size_t before = testing::AllocationCount();
  fn();
  return testing::AllocationCount() - before;
}

// The selection forward: QNetwork's factorized head over an object-major
// pair list of a 4096 x 100 grid, the whole grid and its first 4,096 pairs.
TEST(ForwardAllocTest, FactorizedHeadAllocatesPerCallNotPerBlock) {
  constexpr size_t kObjects = 4096;
  constexpr size_t kAnnotators = 100;
  testing::SelectionScenario s(/*seed=*/5, /*twins=*/false, kObjects,
                               kAnnotators);
  rl::ScoreCache cache;
  cache.Sync(s.View());
  rl::FeatureBlocks blocks;
  blocks.object_blocks = &cache.object_blocks();
  blocks.annotator_blocks = &cache.annotator_blocks();
  blocks.global_block = cache.global_block();
  rl::QNetwork net(rl::QNetworkOptions{});
  std::vector<rl::Action> large;
  for (size_t i = 0; i < kObjects; ++i) {
    for (size_t j = 0; j < kAnnotators; ++j) {
      large.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  ASSERT_EQ(large.size(), kLargeRows);
  const std::vector<rl::Action> small(large.begin(),
                                      large.begin() + kSmallRows);
  const auto forward = [&](const std::vector<rl::Action>& pairs) {
    return [&net, &blocks, &pairs] {
      net.PredictBatchFactorized(blocks, pairs, /*use_target=*/false);
    };
  };
  AllocationsOf(forward(large));  // Warm both shapes' scratch.
  AllocationsOf(forward(small));
  const size_t at_small = AllocationsOf(forward(small));
  const size_t at_large = AllocationsOf(forward(large));
  EXPECT_EQ(at_small, at_large);
  EXPECT_LT(at_small, 32u);
}

// The dense blocked forward, Mlp::InferInto over a materialized batch into
// a reused output.
TEST(ForwardAllocTest, DenseInferIntoAllocatesPerCallNotPerBlock) {
  Rng rng(9);
  const nn::Mlp mlp({12, 64, 32, 1},
                    {nn::Activation::kRelu, nn::Activation::kRelu,
                     nn::Activation::kIdentity},
                    &rng);
  Matrix small(kSmallRows, 12);
  Matrix large(kLargeRows, 12);
  small.FillUniform(&rng, -1.0, 1.0);
  large.FillUniform(&rng, -1.0, 1.0);
  Matrix small_out;
  Matrix large_out;
  mlp.InferInto(large, nullptr, &large_out);  // Warm.
  mlp.InferInto(small, nullptr, &small_out);
  const size_t at_small = AllocationsOf(
      [&] { mlp.InferInto(small, nullptr, &small_out); });
  const size_t at_large = AllocationsOf(
      [&] { mlp.InferInto(large, nullptr, &large_out); });
  EXPECT_EQ(at_small, at_large);
  EXPECT_EQ(at_large, 0u);
}

}  // namespace
}  // namespace crowdrl
