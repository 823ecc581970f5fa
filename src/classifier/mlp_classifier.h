#ifndef CROWDRL_CLASSIFIER_MLP_CLASSIFIER_H_
#define CROWDRL_CLASSIFIER_MLP_CLASSIFIER_H_

#include <memory>
#include <optional>
#include <vector>

#include "classifier/classifier.h"
#include "nn/mlp.h"

namespace crowdrl::classifier {

/// Hyper-parameters for MlpClassifier.
struct MlpClassifierOptions {
  /// Hidden layer widths; empty means multinomial logistic regression.
  std::vector<size_t> hidden_sizes = {32};
  size_t epochs = 40;
  size_t batch_size = 64;
  double learning_rate = 5e-3;  ///< Adam step size.
  double weight_decay = 1e-4;
  /// When true, Train() continues from the current weights instead of
  /// re-initializing — the iterative labelling loop retrains phi every
  /// iteration, and warm starts make that a few cheap refinement epochs
  /// rather than a from-scratch fit.
  bool warm_start = false;
  uint64_t seed = 5;
};

/// \brief The paper's phi: a fully connected network trained with softmax
/// cross-entropy on soft labels (for two classes this is exactly a sigmoid
/// output layer). Each Train() call re-initializes from the stored seed and
/// an internal retrain counter, so retraining is deterministic but not
/// correlated across labelling iterations.
class MlpClassifier : public Classifier {
 public:
  MlpClassifier(size_t feature_dim, int num_classes,
                MlpClassifierOptions options = MlpClassifierOptions());

  Status Train(const Matrix& features, const Matrix& soft_labels,
               const std::vector<double>& weights) override;

  std::vector<double> PredictProbs(
      const std::vector<double>& features) const override;

  Matrix PredictProbsBatch(const Matrix& features) const override;

  int num_classes() const override { return num_classes_; }
  size_t feature_dim() const override { return feature_dim_; }
  bool is_trained() const override { return net_.has_value(); }

  std::unique_ptr<Classifier> Clone() const override;

  /// Checkpointable surface: feature_dim / num_classes (validated on
  /// restore — InvalidArgument on mismatch), the retrain counter (each
  /// Train() derives its init seed from it, so resumed retrains stay on
  /// the uninterrupted run's seed sequence), and the trained network if
  /// one exists.
  void SaveState(io::Writer* writer) const;
  Status LoadState(io::Reader* reader);

 private:
  nn::Mlp BuildNetwork(Rng* rng) const;

  size_t feature_dim_;
  int num_classes_;
  MlpClassifierOptions options_;
  std::optional<nn::Mlp> net_;
  size_t retrain_count_ = 0;
};

/// Multinomial logistic regression: an MlpClassifier with no hidden layers.
/// Cheaper per retrain; used by baselines that the paper pairs with simple
/// models (e.g. OBA's "AI worker").
class LogisticClassifier : public MlpClassifier {
 public:
  LogisticClassifier(size_t feature_dim, int num_classes,
                     MlpClassifierOptions options = MlpClassifierOptions());
};

}  // namespace crowdrl::classifier

#endif  // CROWDRL_CLASSIFIER_MLP_CLASSIFIER_H_
