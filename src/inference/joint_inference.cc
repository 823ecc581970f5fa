#include "inference/joint_inference.h"

#include <cmath>

#include "math/vector_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crowdrl::inference {

namespace {

constexpr double kLogFloor = 1e-12;

// Gathers the feature rows of the inference targets.
Matrix GatherFeatures(const InferenceInput& input) {
  Matrix out(input.objects.size(), input.features->cols());
  for (size_t row = 0; row < input.objects.size(); ++row) {
    out.SetRow(row, input.features->RowVector(
                        static_cast<size_t>(input.objects[row])));
  }
  return out;
}

/// Objects per parallel E-step chunk.
constexpr size_t kEStepGrain = 32;

/// One E-step sweep: for every target row, the posterior
/// q(y_i = c) proportional to p(c | phi)^w * prod_j Pi^j(c, y_ij), written
/// into `posteriors`, plus that row's log-sum-exp term of the likelihood in
/// `row_lse`. Rows are independent, so the sweep parallelizes over objects
/// (`pool` may be null = serial); callers reduce `row_lse` serially in row
/// order, which keeps the summed likelihood bit-identical at every thread
/// count.
void EStep(const InferenceInput& input,
           const std::vector<crowd::ConfusionMatrix>& confusions,
           const Matrix& class_probs, const JointInferenceOptions& options,
           ThreadPool* pool, Matrix* posteriors,
           std::vector<double>* row_lse) {
  size_t n = input.objects.size();
  size_t c = static_cast<size_t>(input.num_classes);
  row_lse->assign(n, 0.0);
  auto e_step_range = [&](size_t row_begin, size_t row_end) {
    std::vector<double> log_post(c);  // Per-chunk scratch.
    for (size_t row = row_begin; row < row_end; ++row) {
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
      double lse = LogSumExp(log_post);
      (*row_lse)[row] = lse;
      for (size_t truth = 0; truth < c; ++truth) {
        posteriors->At(row, truth) = std::exp(log_post[truth] - lse);
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, n, kEStepGrain, e_step_range);
  } else {
    e_step_range(0, n);
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
  CROWDRL_CHECK(options.threads >= 1);
  if (options.threads > 1) {
    pool_ = std::make_shared<ThreadPool>(options.threads);
  }
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
  Matrix target_features = GatherFeatures(input);

  Matrix posteriors = MajorityPosteriors(input);
  // A classifier that already carries beliefs (warm-started across
  // labelling iterations) keeps them; a fresh one is seeded from the
  // majority-vote posteriors.
  if (!input.classifier->is_trained()) {
    CROWDRL_RETURN_IF_ERROR(
        input.classifier->Train(target_features, posteriors, {}));
  }

  std::vector<crowd::ConfusionMatrix> confusions;
  double log_likelihood = 0.0;
  int iteration = 0;
  for (; iteration < options_.em.max_iterations; ++iteration) {
    Matrix class_probs;
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
      // M-step over Theta: retrain phi on the current posteriors. Skipped
      // at iteration 0: at that point `posteriors` is exactly what the
      // classifier was just seeded with (or, warm-started, the beliefs it
      // deliberately keeps), so a retrain would only burn epochs on
      // identical targets.
      if (iteration > 0 &&
          iteration % options_.classifier_retrain_period == 0) {
        CROWDRL_RETURN_IF_ERROR(
            input.classifier->Train(target_features, posteriors, {}));
      }
      class_probs = input.classifier->PredictProbsBatch(target_features);
    }

    // E-step: q(y_i = c) proportional to p(c | phi) * prod_j Pi^j(c, y_ij).
    Matrix next(n, c);
    std::vector<double> row_lse;
    {
      CROWDRL_TRACE_SPAN("joint.e_step");
      static obs::Counter* const e_steps =
          obs::MetricsRegistry::Get().GetCounter("crowdrl.inference.e_steps");
      e_steps->Inc();
      EStep(input, confusions, class_probs, options_, pool_.get(), &next,
            &row_lse);
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
  // confusions/posteriors instead of the pre-M-step ones.
  {
    CROWDRL_TRACE_SPAN("joint.e_step");
    Matrix final_probs =
        input.classifier->PredictProbsBatch(target_features);
    Matrix unused(n, c);
    std::vector<double> row_lse;
    EStep(input, confusions, final_probs, options_, pool_.get(), &unused,
          &row_lse);
    log_likelihood = 0.0;
    for (double lse : row_lse) log_likelihood += lse;
  }
  if (options_.final_fit_on_hard_labels) {
    Matrix hard(n, c);
    for (size_t row = 0; row < n; ++row) {
      hard.At(row, Argmax(posteriors.RowVector(row))) = 1.0;
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
        static_cast<int>(Argmax(result->posteriors.RowVector(row)));
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

  Matrix target_features = GatherFeatures(input);
  // Train phi once, on majority-vote soft labels: this bakes the raw
  // answer noise into the classifier, which is precisely the composite
  // bias the paper's joint model avoids.
  Matrix mv = MajorityPosteriors(input);
  CROWDRL_RETURN_IF_ERROR(input.classifier->Train(target_features, mv, {}));

  // Extend the answer log with the classifier as annotator |W|.
  size_t num_annotators = input.answers->num_annotators();
  crowd::AnswerLog extended(input.answers->num_objects(),
                            num_annotators + 1);
  for (size_t row = 0; row < input.objects.size(); ++row) {
    int object = input.objects[row];
    for (const auto& [annotator, label] :
         input.answers->AnswersFor(object)) {
      extended.Record(object, annotator, label);
    }
    std::vector<double> probs =
        input.classifier->PredictProbs(target_features.RowVector(row));
    extended.Record(object, static_cast<int>(num_annotators),
                    static_cast<int>(Argmax(probs)));
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
