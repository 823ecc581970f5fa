#ifndef CROWDRL_TESTS_TESTING_SEED_TRAINING_H_
#define CROWDRL_TESTS_TESTING_SEED_TRAINING_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "classifier/mlp_classifier.h"
#include "inference/joint_inference.h"
#include "inference/truth_inference.h"
#include "io/serializer.h"
#include "math/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace crowdrl::testing {

/// Verbatim copies of the seed training and inference loops, kept as the
/// golden references the optimized code must match bit for bit: the scalar
/// Adam update, the softmax cross-entropy loss and softmax, the
/// MlpClassifier::Train loop (per-batch x/t/w allocations, SetRow
/// gathers), and the JointInference EM loop (one phi prediction per round,
/// one std::log per answer per class). Do not "fix" or speed these up;
/// their only job is to preserve the historical operation order. Network
/// forwards and backwards go through nn::Mlp, which mlp_golden_test pins
/// to its own seed copy.

// --- Seed nn/optimizer.cc Adam ---------------------------------------------

class SeedAdam : public nn::Optimizer {
 public:
  explicit SeedAdam(double learning_rate, double beta1 = 0.9,
                    double beta2 = 0.999, double epsilon = 1e-8,
                    double weight_decay = 0.0)
      : learning_rate_(learning_rate),
        beta1_(beta1),
        beta2_(beta2),
        epsilon_(epsilon),
        weight_decay_(weight_decay) {}

  /// One update over raw views (no Mlp), for the per-tier kernel tests.
  void Update(std::vector<nn::ParamView>* views) { ApplyUpdate(views); }

  const std::vector<double>& m(size_t i) const { return m_[i]; }
  const std::vector<double>& v(size_t i) const { return v_[i]; }

 protected:
  void ApplyUpdate(std::vector<nn::ParamView>* views) override {
    if (m_.empty()) {
      m_.resize(views->size());
      v_.resize(views->size());
      for (size_t i = 0; i < views->size(); ++i) {
        m_[i].assign((*views)[i].size, 0.0);
        v_[i].assign((*views)[i].size, 0.0);
      }
    }
    CROWDRL_CHECK(m_.size() == views->size());
    ++step_;
    double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
    double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
    for (size_t i = 0; i < views->size(); ++i) {
      nn::ParamView& view = (*views)[i];
      std::vector<double>& m = m_[i];
      std::vector<double>& v = v_[i];
      for (size_t j = 0; j < view.size; ++j) {
        double g = view.grad[j] + weight_decay_ * view.value[j];
        m[j] = beta1_ * m[j] + (1.0 - beta1_) * g;
        v[j] = beta2_ * v[j] + (1.0 - beta2_) * g * g;
        double m_hat = m[j] / bc1;
        double v_hat = v[j] / bc2;
        view.value[j] -=
            learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
      }
    }
  }

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  size_t step_ = 0;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

// --- Seed math/vector_ops.cc softmax ----------------------------------------

inline double SeedLogSumExp(const std::vector<double>& v) {
  double max = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(max)) return max;
  double sum = 0.0;
  for (double x : v) sum += std::exp(x - max);
  return max + std::log(sum);
}

inline std::vector<double> SeedSoftmax(const std::vector<double>& logits) {
  double lse = SeedLogSumExp(logits);
  std::vector<double> out(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - lse);
  }
  return out;
}

inline size_t SeedArgmax(const std::vector<double>& v) {
  size_t best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

// --- Seed nn/loss.cc WeightedSoftmaxCrossEntropyLoss ------------------------

inline double SeedWeightedSoftmaxCrossEntropyLoss(
    const Matrix& logits, const Matrix& target,
    const std::vector<double>& row_weights, Matrix* grad) {
  constexpr double kLogFloor = 1e-12;
  *grad = Matrix(logits.rows(), logits.cols());
  double batch = static_cast<double>(logits.rows());
  double loss = 0.0;
  for (size_t r = 0; r < logits.rows(); ++r) {
    std::vector<double> probs = SeedSoftmax(logits.RowVector(r));
    double w = row_weights[r];
    for (size_t c = 0; c < logits.cols(); ++c) {
      double t = target.At(r, c);
      if (t > 0.0) loss -= w * t * std::log(std::max(probs[c], kLogFloor));
      grad->At(r, c) = w * (probs[c] - t) / batch;
    }
  }
  return loss / batch;
}

// --- Seed classifier/mlp_classifier.cc --------------------------------------

/// The seed MlpClassifier's training state and its Train / PredictProbsBatch
/// bodies; the members mirror MlpClassifier's so both can be driven through
/// the same sequence of calls.
struct SeedMlpClassifier {
  SeedMlpClassifier(size_t feature_dim_in, int num_classes_in,
                    classifier::MlpClassifierOptions options_in)
      : feature_dim(feature_dim_in),
        num_classes(num_classes_in),
        options(std::move(options_in)) {}

  nn::Mlp BuildNetwork(Rng* rng) const {
    std::vector<size_t> sizes;
    sizes.push_back(feature_dim);
    for (size_t h : options.hidden_sizes) sizes.push_back(h);
    sizes.push_back(static_cast<size_t>(num_classes));
    std::vector<nn::Activation> acts(sizes.size() - 1,
                                     nn::Activation::kRelu);
    acts.back() = nn::Activation::kIdentity;
    return nn::Mlp(sizes, acts, rng);
  }

  Status Train(const Matrix& features, const Matrix& soft_labels,
               const std::vector<double>& weights) {
    std::vector<double> sample_weights = weights;
    if (sample_weights.empty()) {
      sample_weights.assign(features.rows(), 1.0);
    }
    Rng rng(options.seed + 0x9E37 * (++retrain_count));
    nn::Mlp trained = options.warm_start && net.has_value()
                          ? *net
                          : BuildNetwork(&rng);
    SeedAdam optimizer(options.learning_rate, 0.9, 0.999, 1e-8,
                       options.weight_decay);

    std::vector<int> order(static_cast<int>(features.rows()));
    std::iota(order.begin(), order.end(), 0);
    for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
      rng.Shuffle(&order);
      for (size_t start = 0; start < order.size();
           start += options.batch_size) {
        size_t end = std::min(order.size(), start + options.batch_size);
        size_t batch = end - start;
        Matrix x(batch, feature_dim);
        Matrix t(batch, static_cast<size_t>(num_classes));
        std::vector<double> w(batch);
        for (size_t b = 0; b < batch; ++b) {
          int row = order[start + b];
          x.SetRow(b, features.RowVector(static_cast<size_t>(row)));
          t.SetRow(b, soft_labels.RowVector(static_cast<size_t>(row)));
          w[b] = sample_weights[static_cast<size_t>(row)];
        }
        const Matrix& logits = trained.Forward(x);
        Matrix grad;
        SeedWeightedSoftmaxCrossEntropyLoss(logits, t, w, &grad);
        trained.Backward(grad);
        optimizer.Step(&trained);
      }
    }
    net = std::move(trained);
    return Status::Ok();
  }

  Matrix PredictProbsBatch(const Matrix& features) const {
    const Matrix& logits = net->Infer(features);
    Matrix out(logits.rows(), logits.cols());
    for (size_t r = 0; r < logits.rows(); ++r) {
      out.SetRow(r, SeedSoftmax(logits.RowVector(r)));
    }
    return out;
  }

  size_t feature_dim;
  int num_classes;
  classifier::MlpClassifierOptions options;
  std::optional<nn::Mlp> net;
  size_t retrain_count = 0;
};

/// The flat parameters of a trained MlpClassifier, read back through its
/// checkpoint surface (the class exposes no network accessor).
inline std::vector<double> ClassifierFlatParameters(
    const classifier::MlpClassifier& phi, const nn::Mlp& same_architecture) {
  io::Writer writer;
  phi.SaveState(&writer);
  io::Reader reader(writer.bytes());
  size_t feature_dim = 0;
  int32_t num_classes = 0;
  size_t retrain_count = 0;
  bool has_net = false;
  CROWDRL_CHECK(reader.ReadSize(&feature_dim).ok());
  CROWDRL_CHECK(reader.ReadI32(&num_classes).ok());
  CROWDRL_CHECK(reader.ReadSize(&retrain_count).ok());
  CROWDRL_CHECK(reader.ReadBool(&has_net).ok() && has_net);
  nn::Mlp net = same_architecture;
  CROWDRL_CHECK(net.LoadState(&reader).ok());
  return net.FlatParameters();
}

// --- Seed inference/joint_inference.cc --------------------------------------

/// The seed JointInference::Infer with the serial E-step: phi predicted in
/// every round and once more for the final likelihood, and a std::log per
/// answer per class. Inputs are assumed valid.
inline Status SeedJointInfer(const inference::JointInferenceOptions& options,
                             const inference::InferenceInput& input,
                             inference::InferenceResult* result) {
  constexpr double kLogFloor = 1e-12;
  size_t n = input.objects.size();
  size_t c = static_cast<size_t>(input.num_classes);
  Matrix target_features(input.objects.size(), input.features->cols());
  for (size_t row = 0; row < input.objects.size(); ++row) {
    target_features.SetRow(row,
                           input.features->RowVector(
                               static_cast<size_t>(input.objects[row])));
  }

  auto e_step = [&](const std::vector<crowd::ConfusionMatrix>& confusions,
                    const Matrix& class_probs, Matrix* posteriors,
                    std::vector<double>* row_lse) {
    row_lse->assign(n, 0.0);
    std::vector<double> log_post(c);
    for (size_t row = 0; row < n; ++row) {
      const crowd::AnswerSpan answers =
          input.answers->AnswersFor(input.objects[row]);
      bool use_prior = options.classifier_prior_on_unanimous;
      if (!use_prior) {
        for (size_t a = 1; a < answers.size(); ++a) {
          if (answers[a].second != answers[0].second) {
            use_prior = true;
            break;
          }
        }
        if (answers.empty()) use_prior = true;
      }
      for (size_t truth = 0; truth < c; ++truth) {
        double lp =
            use_prior
                ? options.classifier_weight *
                      std::log(std::max(class_probs.At(row, truth),
                                        kLogFloor))
                : 0.0;
        for (const auto& [annotator, label] : answers) {
          lp += std::log(std::max(
              confusions[static_cast<size_t>(annotator)].At(
                  static_cast<int>(truth), label),
              kLogFloor));
        }
        log_post[truth] = lp;
      }
      double lse = SeedLogSumExp(log_post);
      (*row_lse)[row] = lse;
      for (size_t truth = 0; truth < c; ++truth) {
        posteriors->At(row, truth) = std::exp(log_post[truth] - lse);
      }
    }
  };

  Matrix posteriors = inference::MajorityPosteriors(input);
  if (!input.classifier->is_trained()) {
    CROWDRL_RETURN_IF_ERROR(
        input.classifier->Train(target_features, posteriors, {}));
  }

  std::vector<crowd::ConfusionMatrix> confusions;
  double log_likelihood = 0.0;
  int iteration = 0;
  for (; iteration < options.em.max_iterations; ++iteration) {
    Matrix class_probs;
    confusions =
        inference::EstimateConfusions(input, posteriors, options.em.smoothing);
    if (input.annotator_types != nullptr) {
      inference::BoundExpertQuality(*input.annotator_types,
                                    options.expert_epsilon,
                                    options.expert_floor_slack, &confusions);
    }
    if (iteration > 0 && iteration % options.classifier_retrain_period == 0) {
      CROWDRL_RETURN_IF_ERROR(
          input.classifier->Train(target_features, posteriors, {}));
    }
    class_probs = input.classifier->PredictProbsBatch(target_features);

    Matrix next(n, c);
    std::vector<double> row_lse;
    e_step(confusions, class_probs, &next, &row_lse);
    log_likelihood = 0.0;
    for (double lse : row_lse) log_likelihood += lse;
    double max_change = 0.0;
    for (size_t i = 0; i < next.size(); ++i) {
      max_change = std::max(max_change,
                            std::fabs(next.data()[i] - posteriors.data()[i]));
    }
    posteriors = std::move(next);
    if (max_change < options.em.tolerance) {
      ++iteration;
      break;
    }
  }

  confusions =
      inference::EstimateConfusions(input, posteriors, options.em.smoothing);
  if (input.annotator_types != nullptr) {
    inference::BoundExpertQuality(*input.annotator_types,
                                  options.expert_epsilon,
                                  options.expert_floor_slack, &confusions);
  }
  {
    Matrix final_probs = input.classifier->PredictProbsBatch(target_features);
    Matrix unused(n, c);
    std::vector<double> row_lse;
    e_step(confusions, final_probs, &unused, &row_lse);
    log_likelihood = 0.0;
    for (double lse : row_lse) log_likelihood += lse;
  }
  if (options.final_fit_on_hard_labels) {
    Matrix hard(n, c);
    for (size_t row = 0; row < n; ++row) {
      hard.At(row, SeedArgmax(posteriors.RowVector(row))) = 1.0;
    }
    CROWDRL_RETURN_IF_ERROR(
        input.classifier->Train(target_features, hard, {}));
  } else {
    CROWDRL_RETURN_IF_ERROR(
        input.classifier->Train(target_features, posteriors, {}));
  }

  result->posteriors = std::move(posteriors);
  result->labels.resize(n);
  for (size_t row = 0; row < n; ++row) {
    result->labels[row] =
        static_cast<int>(SeedArgmax(result->posteriors.RowVector(row)));
  }
  result->confusions = std::move(confusions);
  result->qualities.clear();
  for (const auto& cm : result->confusions) {
    result->qualities.push_back(cm.Quality());
  }
  result->log_likelihood = log_likelihood;
  result->iterations = iteration;
  return Status::Ok();
}

}  // namespace crowdrl::testing

#endif  // CROWDRL_TESTS_TESTING_SEED_TRAINING_H_
