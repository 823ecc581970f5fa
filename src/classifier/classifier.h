#ifndef CROWDRL_CLASSIFIER_CLASSIFIER_H_
#define CROWDRL_CLASSIFIER_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "math/matrix.h"
#include "util/status.h"

namespace crowdrl::classifier {

/// \brief Interface of the paper's classifier phi.
///
/// Two deliberate properties:
///  * Training targets are *distributions* (soft labels), because the joint
///    inference model trains phi on the EM posteriors q(y_i), not on hard
///    labels (Section V-A2).
///  * `PredictProbs` returns phi_cj(o_i) = p(y_i = c_j | phi) — the
///    confidences that drive labelled-set enrichment and the joint model.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Retrains from scratch on the given examples. `soft_labels` has one
  /// row per feature row and num_classes() columns; `weights` (same length
  /// as rows, may be empty for all-ones) scales each sample's loss.
  virtual Status Train(const Matrix& features, const Matrix& soft_labels,
                       const std::vector<double>& weights) = 0;

  /// Class-probability vector for one object. Before the first successful
  /// Train(), returns the uniform distribution.
  virtual std::vector<double> PredictProbs(
      const std::vector<double>& features) const = 0;

  /// Batched prediction; default implementation loops over rows.
  virtual Matrix PredictProbsBatch(const Matrix& features) const;

  virtual int num_classes() const = 0;
  virtual size_t feature_dim() const = 0;
  virtual bool is_trained() const = 0;

  /// Deep copy (used to snapshot phi across labelling iterations).
  virtual std::unique_ptr<Classifier> Clone() const = 0;
};

}  // namespace crowdrl::classifier

#endif  // CROWDRL_CLASSIFIER_CLASSIFIER_H_
