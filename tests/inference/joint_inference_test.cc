#include "inference/joint_inference.h"

#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "classifier/mlp_classifier.h"
#include "inference/dawid_skene.h"
#include "tests/testing/reference_gemm.h"
#include "tests/testing/seed_training.h"
#include "tests/testing/sim_helpers.h"

namespace crowdrl::inference {
namespace {

classifier::MlpClassifier MakePhi(const testing::SimWorld& world) {
  return classifier::MlpClassifier(world.dataset.feature_dim(), 2);
}

InferenceInput MakeInput(const testing::SimWorld& world,
                         classifier::Classifier* phi,
                         const std::vector<crowd::AnnotatorType>* types) {
  InferenceInput input;
  input.answers = world.answers.get();
  input.num_classes = 2;
  input.objects = world.objects;
  input.features = &world.dataset.features;
  input.classifier = phi;
  input.annotator_types = types;
  return input;
}

TEST(JointInferenceTest, RequiresFeaturesAndClassifier) {
  testing::SimWorld world = testing::MakeSimWorld(30, 2, 1, 2, 81);
  JointInference joint;
  InferenceResult result;
  InferenceInput input;
  input.answers = world.answers.get();
  input.num_classes = 2;
  input.objects = world.objects;
  EXPECT_TRUE(joint.Infer(input, &result).IsInvalidArgument());
  input.features = &world.dataset.features;
  EXPECT_TRUE(joint.Infer(input, &result).IsInvalidArgument());
}

TEST(JointInferenceTest, RejectsMismatchedClassifier) {
  testing::SimWorld world = testing::MakeSimWorld(30, 2, 1, 2, 82);
  classifier::MlpClassifier wrong_dim(world.dataset.feature_dim() + 1, 2);
  JointInference joint;
  InferenceResult result;
  InferenceInput input = MakeInput(world, &wrong_dim, nullptr);
  EXPECT_TRUE(joint.Infer(input, &result).IsInvalidArgument());
}

TEST(JointInferenceTest, TrainsTheClassifierAsASideEffect) {
  testing::SimWorld world = testing::MakeSimWorld(150, 3, 2, 3, 83);
  classifier::MlpClassifier phi = MakePhi(world);
  EXPECT_FALSE(phi.is_trained());
  JointInference joint;
  InferenceResult result;
  ASSERT_TRUE(joint.Infer(MakeInput(world, &phi, nullptr), &result).ok());
  EXPECT_TRUE(phi.is_trained());
}

class JointBeatsPlainEmTest : public ::testing::TestWithParam<uint64_t> {};

// The paper's core claim (Section V): coupling the classifier into the EM
// must not lose to annotator-only EM when features are informative, and
// should win with few noisy answers per object.
TEST_P(JointBeatsPlainEmTest, NotWorseThanDawidSkene) {
  testing::SimWorld world =
      testing::MakeSimWorld(400, 5, 0, 2, GetParam(), /*separation=*/3.2);
  classifier::MlpClassifier phi = MakePhi(world);
  std::vector<crowd::AnnotatorType> types;
  for (const auto& a : world.pool) types.push_back(a.type());

  JointInference joint;
  InferenceResult joint_result;
  ASSERT_TRUE(
      joint.Infer(MakeInput(world, &phi, &types), &joint_result).ok());

  DawidSkene em;
  InferenceResult em_result;
  InferenceInput em_input;
  em_input.answers = world.answers.get();
  em_input.num_classes = 2;
  em_input.objects = world.objects;
  ASSERT_TRUE(em.Infer(em_input, &em_result).ok());

  EXPECT_GE(testing::LabelAccuracy(world, joint_result.labels) + 0.015,
            testing::LabelAccuracy(world, em_result.labels));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JointBeatsPlainEmTest,
                         ::testing::Values(91, 92, 93, 94, 95));

TEST(JointInferenceTest, ExpertBoundingHoldsAfterInference) {
  testing::SimWorld world = testing::MakeSimWorld(60, 1, 2, 3, 97);
  classifier::MlpClassifier phi = MakePhi(world);
  std::vector<crowd::AnnotatorType> types;
  for (const auto& a : world.pool) types.push_back(a.type());
  JointInferenceOptions options;
  options.expert_epsilon = 0.8;
  options.expert_floor_slack = 0.05;
  JointInference joint(options);
  InferenceResult result;
  ASSERT_TRUE(joint.Infer(MakeInput(world, &phi, &types), &result).ok());
  for (size_t j = 0; j < world.pool.size(); ++j) {
    if (!world.pool[j].is_expert()) continue;
    for (int c = 0; c < 2; ++c) {
      // Bounded: either naturally above epsilon or clamped to the floor.
      EXPECT_GE(result.confusions[j].At(c, c), 0.8 - 1e-9);
    }
    EXPECT_TRUE(result.confusions[j].Validate().ok());
  }
}

TEST(BoundExpertQualityTest, ClampsOnlyExperts) {
  std::vector<crowd::ConfusionMatrix> confusions = {
      crowd::ConfusionMatrix(Matrix::FromRows({{0.4, 0.6}, {0.5, 0.5}})),
      crowd::ConfusionMatrix(Matrix::FromRows({{0.4, 0.6}, {0.1, 0.9}})),
  };
  std::vector<crowd::AnnotatorType> types = {crowd::AnnotatorType::kWorker,
                                             crowd::AnnotatorType::kExpert};
  BoundExpertQuality(types, /*epsilon=*/0.8, /*floor_slack=*/0.05,
                     &confusions);
  // Worker untouched.
  EXPECT_DOUBLE_EQ(confusions[0].At(0, 0), 0.4);
  // Expert row 0 (diag 0.4 < 0.8) clamped to the 0.95 floor; row 1
  // (diag 0.9 >= 0.8) untouched.
  EXPECT_NEAR(confusions[1].At(0, 0), 0.95, 1e-12);
  EXPECT_NEAR(confusions[1].At(0, 1), 0.05, 1e-12);
  EXPECT_NEAR(confusions[1].At(1, 1), 0.9, 1e-12);
  EXPECT_TRUE(confusions[1].Validate().ok());
}

// Infer must reproduce the seed EM loop (tests/testing/seed_training.h:
// phi predicted every round, a std::log per answer per class) bit for bit,
// whichever rounds retrain phi and whichever objects take its prior. Two
// consecutive calls cover the cold (seeded) and the warm-started phi.
class JointMatchesSeedTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(JointMatchesSeedTest, BitIdenticalToTheSeedLoop) {
  const auto [retrain_period, prior_on_unanimous] = GetParam();
  testing::SimWorld world = testing::MakeSimWorld(120, 3, 1, 3, 77);
  std::vector<crowd::AnnotatorType> types;
  for (const auto& a : world.pool) types.push_back(a.type());
  JointInferenceOptions options;
  options.em.max_iterations = 8;
  options.em.smoothing = 2.0;
  options.classifier_retrain_period = retrain_period;
  options.classifier_prior_on_unanimous = prior_on_unanimous;
  options.classifier_weight = 0.7;
  classifier::MlpClassifierOptions phi_options;
  phi_options.hidden_sizes = {16};
  phi_options.epochs = 4;
  phi_options.warm_start = true;
  classifier::MlpClassifier phi(world.dataset.feature_dim(), 2, phi_options);
  classifier::MlpClassifier seed_phi = phi;

  JointInference joint(options);
  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE(call);
    InferenceResult got;
    InferenceResult want;
    ASSERT_TRUE(joint.Infer(MakeInput(world, &phi, &types), &got).ok());
    ASSERT_TRUE(testing::SeedJointInfer(
                    options, MakeInput(world, &seed_phi, &types), &want)
                    .ok());
    EXPECT_TRUE(testing::BitEqual(got.posteriors, want.posteriors));
    EXPECT_EQ(got.labels, want.labels);
    ASSERT_EQ(got.confusions.size(), want.confusions.size());
    for (size_t j = 0; j < got.confusions.size(); ++j) {
      EXPECT_TRUE(testing::BitEqual(got.confusions[j].probs(),
                                    want.confusions[j].probs()))
          << "annotator " << j;
    }
    EXPECT_EQ(std::memcmp(&got.log_likelihood, &want.log_likelihood,
                          sizeof(double)),
              0)
        << got.log_likelihood << " vs " << want.log_likelihood;
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_TRUE(testing::BitEqual(phi.PredictProbsBatch(world.dataset.features),
                                  seed_phi.PredictProbsBatch(
                                      world.dataset.features)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RetrainPeriodAndPrior, JointMatchesSeedTest,
    ::testing::Combine(::testing::Values(1, 2, 1000), ::testing::Bool()));

TEST(ClassifierAsAnnotatorTest, RunsAndTrimsOutputsToRealAnnotators) {
  testing::SimWorld world = testing::MakeSimWorld(150, 3, 1, 3, 99);
  classifier::MlpClassifier phi = MakePhi(world);
  ClassifierAsAnnotator naive;
  InferenceResult result;
  ASSERT_TRUE(naive.Infer(MakeInput(world, &phi, nullptr), &result).ok());
  EXPECT_EQ(result.labels.size(), world.objects.size());
  EXPECT_EQ(result.confusions.size(), world.pool.size());
  EXPECT_EQ(result.qualities.size(), world.pool.size());
  EXPECT_GT(testing::LabelAccuracy(world, result.labels), 0.75);
}

}  // namespace
}  // namespace crowdrl::inference
