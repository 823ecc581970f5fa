#include "inference/joint_inference.h"

#include <algorithm>
#include <cmath>

#include "math/vector_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crowdrl::inference {

namespace {

constexpr double kLogFloor = 1e-12;

/// log(max(p(c | phi), floor)) for every target row: the E-step's
/// classifier prior. phi changes only when the EM loop retrains it, so
/// this runs once per parameter version instead of once per round.
Matrix PredictLogProbs(const InferenceInput& input) {
  Matrix log_probs =
      input.classifier->PredictProbsRows(*input.features, input.objects);
  for (double& p : log_probs.data()) p = std::log(std::max(p, kLogFloor));
  return log_probs;
}

/// log(max(Pi^j(truth, label), floor)) for every annotator j, flat in
/// [annotator][truth][label] order. Built once per M-step, so the E-step
/// looks each answer's term up instead of taking a log per answer, per
/// class, per round.
std::vector<double> LogConfusionTable(
    const std::vector<crowd::ConfusionMatrix>& confusions, size_t c) {
  std::vector<double> table(confusions.size() * c * c);
  double* out = table.data();
  for (const crowd::ConfusionMatrix& cm : confusions) {
    for (size_t truth = 0; truth < c; ++truth) {
      for (size_t label = 0; label < c; ++label) {
        *out++ = std::log(std::max(
            cm.At(static_cast<int>(truth), static_cast<int>(label)),
            kLogFloor));
      }
    }
  }
  return table;
}

/// One E-step sweep: for every target row, the posterior
/// q(y_i = c) proportional to p(c | phi)^w * prod_j Pi^j(c, y_ij), written
/// into `posteriors` (skipped when null), plus that row's log-sum-exp term
/// of the likelihood in `row_lse`. The logs come precomputed: `log_probs`
/// from PredictLogProbs and `log_confusions` from LogConfusionTable.
void EStep(const InferenceInput& input,
           const std::vector<double>& log_confusions,
           const Matrix& log_probs, const JointInferenceOptions& options,
           Matrix* posteriors, std::vector<double>* row_lse) {
  size_t n = input.objects.size();
  size_t c = static_cast<size_t>(input.num_classes);
  row_lse->assign(n, 0.0);
  std::vector<double> log_post(c);
  for (size_t row = 0; row < n; ++row) {
    // One span binding per row, shared by the prior scan and every truth
    // hypothesis below.
    const crowd::AnswerSpan answers =
        input.answers->AnswersFor(input.objects[row]);
    bool use_prior = options.classifier_prior_on_unanimous;
    if (!use_prior) {
      // Prior only for split votes (or no votes at all).
      for (size_t a = 1; a < answers.size(); ++a) {
        if (answers[a].second != answers[0].second) {
          use_prior = true;
          break;
        }
      }
      if (answers.empty()) use_prior = true;
    }
    for (size_t truth = 0; truth < c; ++truth) {
      double lp = use_prior
                      ? options.classifier_weight * log_probs.At(row, truth)
                      : 0.0;
      for (const auto& [annotator, label] : answers) {
        lp += log_confusions[(static_cast<size_t>(annotator) * c + truth) *
                                 c +
                             static_cast<size_t>(label)];
      }
      log_post[truth] = lp;
    }
    double lse = LogSumExp(log_post);
    (*row_lse)[row] = lse;
    if (posteriors == nullptr) continue;
    for (size_t truth = 0; truth < c; ++truth) {
      posteriors->At(row, truth) = std::exp(log_post[truth] - lse);
    }
  }
}

Status RequireClassifierInputs(const InferenceInput& input) {
  if (input.features == nullptr) {
    return Status::InvalidArgument("joint inference requires features");
  }
  if (input.classifier == nullptr) {
    return Status::InvalidArgument("joint inference requires a classifier");
  }
  if (input.classifier->feature_dim() != input.features->cols()) {
    return Status::InvalidArgument("classifier/feature dim mismatch");
  }
  if (input.classifier->num_classes() != input.num_classes) {
    return Status::InvalidArgument("classifier/class count mismatch");
  }
  return Status::Ok();
}

}  // namespace

JointInference::JointInference(JointInferenceOptions options)
    : options_(options) {
  CROWDRL_CHECK(options.em.max_iterations > 0);
  CROWDRL_CHECK(options.classifier_retrain_period > 0);
  CROWDRL_CHECK(options.expert_epsilon >= 0.0 &&
                options.expert_epsilon <= 1.0);
  CROWDRL_CHECK(options.expert_floor_slack >= 0.0 &&
                options.expert_floor_slack < 1.0);
  CROWDRL_CHECK(options.classifier_weight >= 0.0 &&
                options.classifier_weight <= 1.0);
}

Status JointInference::Infer(const InferenceInput& input,
                             InferenceResult* result) {
  CROWDRL_CHECK(result != nullptr);
  CROWDRL_TRACE_SPAN("joint.infer");
  CROWDRL_RETURN_IF_ERROR(ValidateInput(input));
  CROWDRL_RETURN_IF_ERROR(RequireClassifierInputs(input));

  size_t n = input.objects.size();
  size_t c = static_cast<size_t>(input.num_classes);
  // phi trains and predicts on the targets' rows of the feature matrix.
  auto train_phi = [&input](const Matrix& targets) {
    CROWDRL_TRACE_SPAN("joint.phi_train");
    return input.classifier->TrainRows(*input.features, input.objects,
                                       targets, {});
  };

  Matrix posteriors = MajorityPosteriors(input);
  // A classifier that already carries beliefs (warm-started across
  // labelling iterations) keeps them; a fresh one is seeded from the
  // majority-vote posteriors.
  if (!input.classifier->is_trained()) {
    CROWDRL_RETURN_IF_ERROR(train_phi(posteriors));
  }

  // phi's E-step prior, refreshed only after a retrain below.
  Matrix log_probs = PredictLogProbs(input);

  std::vector<crowd::ConfusionMatrix> confusions;
  std::vector<double> log_confusions;
  double log_likelihood = 0.0;
  int iteration = 0;
  for (; iteration < options_.em.max_iterations; ++iteration) {
    {
      CROWDRL_TRACE_SPAN("joint.m_step");
      static obs::Counter* const m_steps =
          obs::MetricsRegistry::Get().GetCounter("crowdrl.inference.m_steps");
      m_steps->Inc();
      // M-step over annotator expertises, with expert bounding.
      confusions = EstimateConfusions(input, posteriors,
                                      options_.em.smoothing);
      if (input.annotator_types != nullptr) {
        BoundExpertQuality(*input.annotator_types, options_.expert_epsilon,
                           options_.expert_floor_slack, &confusions);
      }
      log_confusions = LogConfusionTable(confusions, c);
      // M-step over Theta: retrain phi on the current posteriors. Skipped
      // at iteration 0: at that point `posteriors` is exactly what the
      // classifier was just seeded with (or, warm-started, the beliefs it
      // deliberately keeps), so a retrain would only burn epochs on
      // identical targets.
      if (iteration > 0 &&
          iteration % options_.classifier_retrain_period == 0) {
        CROWDRL_RETURN_IF_ERROR(train_phi(posteriors));
        log_probs = PredictLogProbs(input);
      }
    }

    // E-step: q(y_i = c) proportional to p(c | phi) * prod_j Pi^j(c, y_ij).
    Matrix next(n, c);
    std::vector<double> row_lse;
    {
      CROWDRL_TRACE_SPAN("joint.e_step");
      static obs::Counter* const e_steps =
          obs::MetricsRegistry::Get().GetCounter("crowdrl.inference.e_steps");
      e_steps->Inc();
      EStep(input, log_confusions, log_probs, options_, &next, &row_lse);
    }
    log_likelihood = 0.0;
    for (double lse : row_lse) log_likelihood += lse;
    double max_change = 0.0;
    for (size_t i = 0; i < next.size(); ++i) {
      max_change = std::max(max_change,
                            std::fabs(next.data()[i] - posteriors.data()[i]));
    }
    posteriors = std::move(next);
    if (max_change < options_.em.tolerance) {
      ++iteration;
      break;
    }
  }

  // Final M-step so outputs are mutually consistent, and a final classifier
  // fit on the converged posteriors (this phi drives enrichment next).
  confusions = EstimateConfusions(input, posteriors, options_.em.smoothing);
  if (input.annotator_types != nullptr) {
    BoundExpertQuality(*input.annotator_types, options_.expert_epsilon,
                       options_.expert_floor_slack, &confusions);
  }
  // Recompute the likelihood under the *final* confusions and the phi that
  // shaped the converged posteriors (i.e. before the enrichment-oriented
  // final fit below), so the reported value matches the returned
  // confusions/posteriors instead of the pre-M-step ones. That phi is the
  // one `log_probs` was predicted from.
  {
    CROWDRL_TRACE_SPAN("joint.e_step");
    std::vector<double> row_lse;
    EStep(input, LogConfusionTable(confusions, c), log_probs, options_,
          /*posteriors=*/nullptr, &row_lse);
    log_likelihood = 0.0;
    for (double lse : row_lse) log_likelihood += lse;
  }
  if (options_.final_fit_on_hard_labels) {
    Matrix hard(n, c);
    for (size_t row = 0; row < n; ++row) {
      hard.At(row, Argmax(posteriors.Row(row), c)) = 1.0;
    }
    CROWDRL_RETURN_IF_ERROR(train_phi(hard));
  } else {
    CROWDRL_RETURN_IF_ERROR(train_phi(posteriors));
  }

  result->posteriors = std::move(posteriors);
  result->labels.resize(n);
  for (size_t row = 0; row < n; ++row) {
    result->labels[row] =
        static_cast<int>(Argmax(result->posteriors.Row(row), c));
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

ClassifierAsAnnotator::ClassifierAsAnnotator(EmOptions options)
    : options_(options) {}

Status ClassifierAsAnnotator::Infer(const InferenceInput& input,
                                    InferenceResult* result) {
  CROWDRL_CHECK(result != nullptr);
  CROWDRL_RETURN_IF_ERROR(ValidateInput(input));
  CROWDRL_RETURN_IF_ERROR(RequireClassifierInputs(input));

  // Train phi once, on majority-vote soft labels: this bakes the raw
  // answer noise into the classifier, which is precisely the composite
  // bias the paper's joint model avoids.
  Matrix mv = MajorityPosteriors(input);
  CROWDRL_RETURN_IF_ERROR(input.classifier->TrainRows(
      *input.features, input.objects, mv, {}));

  // Extend the answer log with the classifier as annotator |W|.
  size_t num_annotators = input.answers->num_annotators();
  crowd::AnswerLog extended(input.answers->num_objects(),
                            num_annotators + 1);
  Matrix probs =
      input.classifier->PredictProbsRows(*input.features, input.objects);
  for (size_t row = 0; row < input.objects.size(); ++row) {
    int object = input.objects[row];
    for (const auto& [annotator, label] :
         input.answers->AnswersFor(object)) {
      extended.Record(object, annotator, label);
    }
    extended.Record(object, static_cast<int>(num_annotators),
                    static_cast<int>(Argmax(probs.Row(row), probs.cols())));
  }

  InferenceInput extended_input;
  extended_input.answers = &extended;
  extended_input.num_classes = input.num_classes;
  extended_input.objects = input.objects;
  DawidSkene em(options_);
  CROWDRL_RETURN_IF_ERROR(em.Infer(extended_input, result));

  // Trim the synthetic annotator so outputs align with real annotator ids.
  result->confusions.resize(num_annotators,
                            crowd::ConfusionMatrix(input.num_classes));
  result->qualities.resize(num_annotators);
  return Status::Ok();
}

}  // namespace crowdrl::inference
