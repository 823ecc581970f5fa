#ifndef CROWDRL_INFERENCE_JOINT_INFERENCE_H_
#define CROWDRL_INFERENCE_JOINT_INFERENCE_H_

#include "inference/dawid_skene.h"
#include "inference/truth_inference.h"

namespace crowdrl::inference {

/// Options for JointInference.
struct JointInferenceOptions {
  EmOptions em;
  /// Expert-quality bounding threshold (Section V-A2): an expert's
  /// estimated diagonal entry below this triggers the clamp.
  double expert_epsilon = 0.8;
  /// The clamped diagonal becomes 1 - expert_floor_slack.
  double expert_floor_slack = 0.05;
  /// Retrain the classifier every this many EM rounds (1 = every round,
  /// the paper's "iteratively update Theta and each Pi meanwhile").
  int classifier_retrain_period = 2;
  /// Tempering exponent on the classifier prior in the E-step:
  /// q(y) proportional to p(y | phi)^w * prod_j Pi(y, y_j). 1.0 counts phi
  /// as a full annotator; below 1 discounts it, which guards against phi's
  /// own biases re-entering the posterior (the composite-bias loop the
  /// paper warns about surfaces here when phi is trained on few noisy
  /// labels).
  double classifier_weight = 1.0;
  /// When true, the *final* classifier fit (the phi handed back for
  /// enrichment) trains on the arg-max of the converged posteriors rather
  /// than the soft posteriors. Hard targets give phi sharper confidences,
  /// which the enrichment gap test needs; the EM itself still trains on
  /// soft posteriors.
  bool final_fit_on_hard_labels = true;
  /// When false, the classifier prior enters the E-step only for objects
  /// whose answers are *split*: phi breaks ties but never overrides a
  /// unanimous annotator verdict. This curbs the composite-bias feedback
  /// (phi re-labelling objects the crowd already agrees on) while keeping
  /// phi's value exactly where the paper motivates it — ambiguous cases.
  bool classifier_prior_on_unanimous = false;
};

/// \brief CrowdRL's joint truth-inference model (Section V, Fig. 3b).
///
/// Maximizes the likelihood of Eq. 7/8 by coordinate ascent: the E-step
/// posterior couples the classifier's class probabilities p(y_i | phi) with
/// the annotator terms prod_j Pi^j(y_i, y_ij); the M-step re-estimates
/// every confusion matrix from the soft counts, applies expert-quality
/// bounding, and *retrains phi on the posterior soft labels* — so the
/// classifier's biases and the annotators' biases are modelled together
/// instead of composing (the failure mode of the naive Fig. 3a method).
///
/// Requires `features` and a mutable `classifier` in the input; the
/// classifier is left trained on the final posteriors, which is exactly
/// the phi that labelled-set enrichment then uses.
class JointInference : public TruthInference {
 public:
  explicit JointInference(
      JointInferenceOptions options = JointInferenceOptions());

  Status Infer(const InferenceInput& input, InferenceResult* result) override;

  const char* name() const override { return "Joint"; }

 private:
  JointInferenceOptions options_;
};

/// \brief The naive alternative the paper argues against (Fig. 3a):
/// treat the trained classifier as one extra annotator with its own
/// confusion matrix and run plain Dawid-Skene over |W| + 1 annotators.
/// The classifier is trained once on majority-vote posteriors before the
/// EM pass, so its composite bias leaks into the inference — kept as a
/// comparison point for the ablation benches.
class ClassifierAsAnnotator : public TruthInference {
 public:
  explicit ClassifierAsAnnotator(EmOptions options = EmOptions());

  Status Infer(const InferenceInput& input, InferenceResult* result) override;

  const char* name() const override { return "NaiveCls"; }

 private:
  EmOptions options_;
};

}  // namespace crowdrl::inference

#endif  // CROWDRL_INFERENCE_JOINT_INFERENCE_H_
