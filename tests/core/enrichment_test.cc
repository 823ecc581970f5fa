#include "core/enrichment.h"

#include <gtest/gtest.h>

#include "core/reward.h"

namespace crowdrl::core {
namespace {

// Each test hands EnrichLabelledSet a canned class-probability matrix, one
// row per object, in place of phi's batch prediction.

TEST(EnrichmentTest, LabelsConfidentSkipsAmbiguous) {
  Matrix probs = Matrix::FromRows(
      {{0.95, 0.05}, {0.55, 0.45}, {0.05, 0.95}, {0.7, 0.3}});
  LabelState state(4, 2);
  state.SetLabel(3, 0, LabelSource::kInference);  // Pre-labelled.
  EnrichmentOptions options;
  options.epsilon = 0.5;
  options.min_labelled = 1;
  options.min_labelled_fraction = 0.0;
  size_t enriched = EnrichLabelledSet(&probs, options, &state);
  EXPECT_EQ(enriched, 2u);  // Objects 0 and 2; 1 too ambiguous; 3 taken.
  EXPECT_EQ(state.label(0), 0);
  EXPECT_EQ(state.source(0), LabelSource::kClassifier);
  EXPECT_EQ(state.label(2), 1);
  EXPECT_FALSE(state.IsLabelled(1));
  EXPECT_EQ(state.source(3), LabelSource::kInference);  // Untouched.
}

TEST(EnrichmentTest, ExactThresholdStaysUnlabelled) {
  // Gap == epsilon must NOT label (Algorithm 1: <= epsilon is ambiguous).
  Matrix probs = Matrix::FromRows({{0.75, 0.25}});
  LabelState state(1, 2);
  EnrichmentOptions options;
  options.epsilon = 0.5;
  options.min_labelled = 0;
  options.min_labelled_fraction = 0.0;
  EXPECT_EQ(EnrichLabelledSet(&probs, options, &state), 0u);
}

TEST(EnrichmentTest, UntrainedClassifierIsNoop) {
  // An untrained phi has no predictions: the caller passes null.
  LabelState state(1, 2);
  EnrichmentOptions options;
  options.min_labelled = 0;
  options.min_labelled_fraction = 0.0;
  EXPECT_EQ(EnrichLabelledSet(nullptr, options, &state), 0u);
  EXPECT_FALSE(state.IsLabelled(0));
}

TEST(EnrichmentTest, MinLabelledGateBlocks) {
  Matrix probs = Matrix::FromRows({{1.0, 0.0}, {1.0, 0.0}});
  LabelState state(2, 2);
  EnrichmentOptions options;
  options.epsilon = 0.5;
  options.min_labelled = 1;
  options.min_labelled_fraction = 0.0;
  EXPECT_EQ(EnrichLabelledSet(&probs, options, &state), 0u);
  state.SetLabel(0, 0, LabelSource::kInference);
  EXPECT_EQ(EnrichLabelledSet(&probs, options, &state), 1u);
}

TEST(EnrichmentTest, FractionGateScalesWithWorkload) {
  Matrix probs(10, 2, 0.0);
  LabelState state(10, 2);
  state.SetLabel(0, 0, LabelSource::kInference);
  EnrichmentOptions options;
  options.min_labelled = 1;
  options.min_labelled_fraction = 0.5;  // Needs 5 labelled, has 1.
  EXPECT_EQ(EnrichLabelledSet(&probs, options, &state), 0u);
}

TEST(RewardTest, SharedEnrichmentReward) {
  RewardOptions options;
  options.lambda = 2.0;
  EXPECT_DOUBLE_EQ(SharedEnrichmentReward(options, 5, 10), 1.0);
  EXPECT_DOUBLE_EQ(SharedEnrichmentReward(options, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(SharedEnrichmentReward(options, 0, 0), 0.0);
}

TEST(RewardTest, PairReward) {
  RewardOptions options;
  options.mu = 1.0;
  options.eta = -0.5;
  EXPECT_DOUBLE_EQ(PairReward(options, true, 10.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(PairReward(options, false, 1.0, 10.0), -0.05);
  EXPECT_DOUBLE_EQ(PairReward(options, true, 0.0, 10.0), 1.0);
}

}  // namespace
}  // namespace crowdrl::core
