#include "util/topk.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace crowdrl {
namespace {

TEST(TopKTest, KeepsLargestScores) {
  TopK<int> top(3);
  for (int i = 0; i < 10; ++i) top.Push(static_cast<double>(i), i);
  auto out = top.TakeSortedDescending();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].second, 9);
  EXPECT_EQ(out[1].second, 8);
  EXPECT_EQ(out[2].second, 7);
}

TEST(TopKTest, FewerItemsThanK) {
  TopK<int> top(5);
  top.Push(1.0, 1);
  top.Push(2.0, 2);
  EXPECT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top.ScoreSum(), 3.0);
}

TEST(TopKTest, ScoreSumTracksRetained) {
  TopK<int> top(2);
  top.Push(1.0, 1);
  top.Push(5.0, 5);
  top.Push(3.0, 3);
  EXPECT_DOUBLE_EQ(top.ScoreSum(), 8.0);  // 5 + 3.
  EXPECT_DOUBLE_EQ(top.MinScore(), 3.0);
}

TEST(TopKTest, NegativeScores) {
  TopK<int> top(2);
  top.Push(-5.0, 1);
  top.Push(-1.0, 2);
  top.Push(-3.0, 3);
  auto out = top.TakeSortedDescending();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 2);
  EXPECT_EQ(out[1].second, 3);
}

TEST(TopKTest, AllNegativeScoreSumAndMin) {
  // Q-values below zero are routine early in training; the selector must
  // not treat 0 as an implicit floor when every score is negative.
  TopK<int> top(3);
  top.Push(-8.0, 1);
  top.Push(-2.0, 2);
  top.Push(-4.0, 3);
  top.Push(-16.0, 4);
  EXPECT_EQ(top.size(), 3u);
  EXPECT_DOUBLE_EQ(top.ScoreSum(), -14.0);  // -2 + -4 + -8.
  EXPECT_DOUBLE_EQ(top.MinScore(), -8.0);
  auto out = top.TakeSortedDescending();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].second, 2);
  EXPECT_EQ(out[1].second, 3);
  EXPECT_EQ(out[2].second, 1);
}

TEST(TopKTest, AllNegativeFewerThanK) {
  TopK<int> top(5);
  top.Push(-1.5, 7);
  top.Push(-0.5, 8);
  EXPECT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top.ScoreSum(), -2.0);
  auto out = top.TakeSortedDescending();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 8);
  EXPECT_EQ(out[1].second, 7);
}

TEST(TopKTest, TakeEmptiesTheSelector) {
  TopK<int> top(2);
  top.Push(1.0, 1);
  (void)top.TakeSortedDescending();
  EXPECT_TRUE(top.empty());
  EXPECT_DOUBLE_EQ(top.ScoreSum(), 0.0);
}

class TopKPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TopKPropertyTest, MatchesSortOnRandomInput) {
  int k = GetParam();
  Rng rng(101 + static_cast<uint64_t>(k));
  std::vector<double> scores(200);
  for (double& s : scores) s = rng.Uniform(-10.0, 10.0);

  TopK<size_t> top(static_cast<size_t>(k));
  for (size_t i = 0; i < scores.size(); ++i) top.Push(scores[i], i);
  auto got = top.TakeSortedDescending();

  std::vector<double> sorted = scores;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  ASSERT_EQ(got.size(), std::min<size_t>(k, scores.size()));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].first, sorted[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKPropertyTest,
                         ::testing::Values(1, 2, 3, 10, 50, 200, 500));

// Each SlotTopK slot holds what a TopK fed the same sequence holds: the
// same sum bits and the same sorted entries, ties and all, with slots fed
// interleaved and the buffer reused across Resets.
TEST(SlotTopKTest, EverySlotMatchesATopKBitForBit) {
  Rng rng(4242);
  SlotTopK<size_t> slots;
  for (int round = 0; round < 20; ++round) {
    const size_t k = 1 + static_cast<size_t>(rng.UniformInt(6));
    const size_t num_slots = 1 + static_cast<size_t>(rng.UniformInt(30));
    slots.Reset(num_slots, k);
    std::vector<TopK<size_t>> want;
    for (size_t s = 0; s < num_slots; ++s) want.emplace_back(k);
    for (int push = 0; push < 400; ++push) {
      const size_t slot = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(num_slots)));
      // Few distinct values: exact ties at the heap's minimum are common.
      const double score = 0.1 * static_cast<double>(rng.UniformInt(9)) +
                           (rng.Bernoulli(0.5) ? rng.Uniform() : 0.0);
      const size_t item = static_cast<size_t>(push);
      slots.Push(slot, score, item);
      want[slot].Push(score, item);
    }
    std::vector<std::pair<double, size_t>> got;
    for (size_t s = 0; s < num_slots; ++s) {
      ASSERT_EQ(slots.size(s), want[s].size());
      const double want_sum = want[s].ScoreSum();
      const double got_sum = slots.ScoreSum(s);
      EXPECT_EQ(std::memcmp(&got_sum, &want_sum, sizeof(double)), 0);
      slots.SortedDescendingInto(s, &got);
      EXPECT_EQ(got, want[s].TakeSortedDescending()) << "slot " << s;
    }
  }
}

}  // namespace
}  // namespace crowdrl
