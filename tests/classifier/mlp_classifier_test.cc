#include "classifier/mlp_classifier.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "classifier/knn_classifier.h"
#include "data/dataset.h"
#include "io/serializer.h"
#include "math/vector_ops.h"
#include "tests/testing/reference_gemm.h"
#include "tests/testing/seed_training.h"
#include "util/random.h"

namespace crowdrl::classifier {
namespace {

// Well-separated two-class workload plus one-hot labels.
struct TrainingSet {
  Matrix x;
  Matrix y;
  std::vector<int> truths;
};

TrainingSet MakeSeparable(size_t n, uint64_t seed) {
  data::GaussianMixtureOptions options;
  options.num_objects = n;
  options.view = {8, 6.0, 1.0};  // Very separable.
  options.seed = seed;
  data::Dataset d = data::MakeGaussianMixture(options);
  TrainingSet set;
  set.x = d.features;
  set.y = Matrix(n, 2);
  for (size_t i = 0; i < n; ++i) {
    set.y.At(i, static_cast<size_t>(d.truths[i])) = 1.0;
  }
  set.truths = d.truths;
  return set;
}

double Accuracy(const Classifier& c, const TrainingSet& set) {
  size_t correct = 0;
  for (size_t i = 0; i < set.x.rows(); ++i) {
    if (static_cast<int>(Argmax(c.PredictProbs(set.x.RowVector(i)))) ==
        set.truths[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(set.x.rows());
}

TEST(MlpClassifierTest, UntrainedPredictsUniform) {
  MlpClassifier c(4, 3);
  EXPECT_FALSE(c.is_trained());
  std::vector<double> probs = c.PredictProbs({0.0, 0.0, 0.0, 0.0});
  for (double p : probs) EXPECT_DOUBLE_EQ(p, 1.0 / 3.0);
}

TEST(MlpClassifierTest, LearnsSeparableData) {
  TrainingSet set = MakeSeparable(200, 3);
  MlpClassifier c(8, 2);
  ASSERT_TRUE(c.Train(set.x, set.y, {}).ok());
  EXPECT_TRUE(c.is_trained());
  EXPECT_GT(Accuracy(c, set), 0.95);
}

TEST(MlpClassifierTest, ProbabilitiesSumToOne) {
  TrainingSet set = MakeSeparable(100, 4);
  MlpClassifier c(8, 2);
  ASSERT_TRUE(c.Train(set.x, set.y, {}).ok());
  for (size_t i = 0; i < 10; ++i) {
    std::vector<double> p = c.PredictProbs(set.x.RowVector(i));
    double sum = 0.0;
    for (double v : p) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// Bitwise: enrichment, Finalize and the naive baseline read rows of the
// batch prediction in place of single-object predictions. Row counts 1-9
// and 257 cover every tail of the 4-row GEMM tile and a 256-row block edge.
TEST(MlpClassifierTest, BatchMatchesSinglePrediction) {
  TrainingSet set = MakeSeparable(257, 5);
  MlpClassifier c(8, 2);
  ASSERT_TRUE(c.Train(set.x, set.y, {}).ok());
  for (size_t rows : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 257u}) {
    Matrix x(rows, set.x.cols());
    for (size_t i = 0; i < rows; ++i) x.SetRow(i, set.x.RowVector(i));
    Matrix batch = c.PredictProbsBatch(x);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<double> single = c.PredictProbs(set.x.RowVector(i));
      ASSERT_EQ(std::memcmp(batch.Row(i), single.data(),
                            single.size() * sizeof(double)),
                0)
          << "row " << i << " of a " << rows << "-row batch";
    }
  }
}

// Train must reproduce the seed loop (tests/testing/seed_training.h) bit
// for bit — the same parameters after every retrain and the same batch
// prediction — with sample weights, a short last batch (150 rows in
// batches of 64), three classes, and warm starts on and off.
TEST(MlpClassifierTest, TrainMatchesTheSeedLoopBitForBit) {
  Rng rng(41);
  Matrix x(150, 7);
  x.FillUniform(&rng, -2.0, 2.0);
  std::vector<double> weights(150);
  for (double& w : weights) w = rng.Uniform(0.2, 3.0);
  for (bool warm_start : {false, true}) {
    MlpClassifierOptions options;
    options.hidden_sizes = {16};
    options.epochs = 4;
    options.batch_size = 64;
    options.weight_decay = 3e-3;
    options.warm_start = warm_start;
    MlpClassifier phi(7, 3, options);
    testing::SeedMlpClassifier seed(7, 3, options);
    for (int round = 0; round < 3; ++round) {
      Matrix labels(150, 3);
      labels.FillUniform(&rng, 0.0, 1.0);
      for (size_t i = 0; i < 150; ++i) {
        double sum = labels.At(i, 0) + labels.At(i, 1) + labels.At(i, 2);
        for (size_t k = 0; k < 3; ++k) labels.At(i, k) /= sum;
      }
      // Weighted in the even rounds, unweighted (empty) in the odd one.
      const std::vector<double> w =
          round % 2 == 0 ? weights : std::vector<double>();
      ASSERT_TRUE(phi.Train(x, labels, w).ok());
      ASSERT_TRUE(seed.Train(x, labels, w).ok());
      const std::vector<double> got =
          testing::ClassifierFlatParameters(phi, *seed.net);
      const std::vector<double> want = seed.net->FlatParameters();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
          0)
          << "warm_start " << warm_start << " round " << round;
      EXPECT_TRUE(testing::BitEqual(phi.PredictProbsBatch(x),
                                    seed.PredictProbsBatch(x)))
          << "warm_start " << warm_start << " round " << round;
    }
  }
}

// Joint inference trains and predicts phi on the answered objects' rows
// of the feature matrix. TrainRows and PredictProbsRows read those rows
// in place; they must match Train and PredictProbsBatch on a gathered
// copy bit for bit, over a shuffled subset that spans two forward blocks,
// with sample weights and warm starts on and off.
TEST(MlpClassifierTest, RowSubsetsMatchGatheredCopiesBitwise) {
  Rng rng(43);
  Matrix x(400, 7);
  x.FillUniform(&rng, -2.0, 2.0);
  std::vector<int> rows;
  for (int r = 0; r < 400; ++r) {
    if (r % 4 != 1) rows.push_back(r);
  }
  rng.Shuffle(&rows);
  Matrix gathered(rows.size(), 7);
  for (size_t r = 0; r < rows.size(); ++r) {
    gathered.SetRow(r, x.RowVector(static_cast<size_t>(rows[r])));
  }
  std::vector<double> weights(rows.size());
  for (double& w : weights) w = rng.Uniform(0.2, 3.0);
  for (bool warm_start : {false, true}) {
    MlpClassifierOptions options;
    options.hidden_sizes = {16};
    options.epochs = 3;
    options.warm_start = warm_start;
    MlpClassifier copied(7, 3, options);
    MlpClassifier in_place(7, 3, options);
    for (int round = 0; round < 2; ++round) {
      Matrix labels(rows.size(), 3);
      labels.FillUniform(&rng, 0.05, 1.0);
      const std::vector<double> w =
          round == 0 ? weights : std::vector<double>();
      ASSERT_TRUE(copied.Train(gathered, labels, w).ok());
      ASSERT_TRUE(in_place.TrainRows(x, rows, labels, w).ok());
      io::Writer copied_state;
      io::Writer in_place_state;
      copied.SaveState(&copied_state);
      in_place.SaveState(&in_place_state);
      EXPECT_EQ(copied_state.bytes(), in_place_state.bytes())
          << "warm_start " << warm_start << " round " << round;
      EXPECT_TRUE(testing::BitEqual(in_place.PredictProbsRows(x, rows),
                                    copied.PredictProbsBatch(gathered)))
          << "warm_start " << warm_start << " round " << round;
    }
  }
  // Classifiers without their own row paths gather through the defaults.
  KnnClassifier knn(7, 3);
  KnnClassifier knn_rows(7, 3);
  Matrix labels(rows.size(), 3);
  labels.FillUniform(&rng, 0.05, 1.0);
  ASSERT_TRUE(knn.Train(gathered, labels, {}).ok());
  ASSERT_TRUE(knn_rows.TrainRows(x, rows, labels, {}).ok());
  EXPECT_TRUE(testing::BitEqual(knn_rows.PredictProbsRows(x, rows),
                                knn.PredictProbsBatch(gathered)));
}

TEST(MlpClassifierTest, SoftLabelTrainingWorks) {
  TrainingSet set = MakeSeparable(150, 6);
  // Soften the labels: 0.9 / 0.1 instead of one-hot.
  Matrix soft = set.y;
  for (size_t i = 0; i < soft.rows(); ++i) {
    for (size_t k = 0; k < 2; ++k) {
      soft.At(i, k) = soft.At(i, k) * 0.8 + 0.1;
    }
  }
  MlpClassifier c(8, 2);
  ASSERT_TRUE(c.Train(set.x, soft, {}).ok());
  EXPECT_GT(Accuracy(c, set), 0.9);
}

TEST(MlpClassifierTest, SampleWeightsResolveConflictingLabels) {
  // The same input appears with both labels; the heavier label must win.
  Matrix x(20, 2);
  Matrix y(20, 2);
  std::vector<double> weights(20);
  for (size_t i = 0; i < 20; ++i) {
    x.At(i, 0) = 1.0;
    x.At(i, 1) = -1.0;
    bool label_one = i % 2 == 0;
    y.At(i, label_one ? 1 : 0) = 1.0;
    weights[i] = label_one ? 10.0 : 0.1;
  }
  MlpClassifier c(2, 2);
  ASSERT_TRUE(c.Train(x, y, weights).ok());
  EXPECT_EQ(Argmax(c.PredictProbs({1.0, -1.0})), 1u);
}

TEST(MlpClassifierTest, ErrorStatuses) {
  MlpClassifier c(4, 2);
  Matrix empty;
  EXPECT_TRUE(c.Train(empty, empty, {}).IsInvalidArgument());
  Matrix x(3, 4);
  Matrix wrong_labels(3, 3);
  EXPECT_TRUE(c.Train(x, wrong_labels, {}).IsInvalidArgument());
  Matrix y(3, 2);
  EXPECT_TRUE(c.Train(x, y, {1.0}).IsInvalidArgument());
  Matrix bad_x(3, 5);
  EXPECT_TRUE(c.Train(bad_x, y, {}).IsInvalidArgument());
  EXPECT_TRUE(c.TrainRows(x, {}, empty, {}).IsInvalidArgument());
  EXPECT_TRUE(c.TrainRows(x, {0, 3, 1}, y, {}).IsInvalidArgument());
  EXPECT_TRUE(c.TrainRows(x, {0, -1, 1}, y, {}).IsInvalidArgument());
  EXPECT_TRUE(c.TrainRows(x, {0, 1}, y, {}).IsInvalidArgument());
}

TEST(MlpClassifierTest, CloneIsIndependent) {
  TrainingSet set = MakeSeparable(80, 8);
  MlpClassifier c(8, 2);
  ASSERT_TRUE(c.Train(set.x, set.y, {}).ok());
  std::unique_ptr<Classifier> clone = c.Clone();
  EXPECT_TRUE(clone->is_trained());
  std::vector<double> before = clone->PredictProbs(set.x.RowVector(0));
  // Retrain the original on flipped labels; the clone must not move.
  Matrix flipped(set.y.rows(), 2);
  for (size_t i = 0; i < set.y.rows(); ++i) {
    flipped.At(i, 0) = set.y.At(i, 1);
    flipped.At(i, 1) = set.y.At(i, 0);
  }
  ASSERT_TRUE(c.Train(set.x, flipped, {}).ok());
  std::vector<double> after = clone->PredictProbs(set.x.RowVector(0));
  EXPECT_EQ(before, after);
}

TEST(MlpClassifierTest, WarmStartContinuesFromWeights) {
  TrainingSet set = MakeSeparable(150, 9);
  MlpClassifierOptions options;
  options.warm_start = true;
  options.epochs = 3;
  MlpClassifier c(8, 2, options);
  ASSERT_TRUE(c.Train(set.x, set.y, {}).ok());
  double acc1 = Accuracy(c, set);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(c.Train(set.x, set.y, {}).ok());
  }
  EXPECT_GE(Accuracy(c, set), acc1 - 0.02);  // Refinement never regresses.
}

TEST(LogisticClassifierTest, LearnsLinearlySeparableData) {
  TrainingSet set = MakeSeparable(200, 10);
  LogisticClassifier c(8, 2);
  ASSERT_TRUE(c.Train(set.x, set.y, {}).ok());
  EXPECT_GT(Accuracy(c, set), 0.95);
}

}  // namespace
}  // namespace crowdrl::classifier
