#ifndef CROWDRL_CORE_ENRICHMENT_H_
#define CROWDRL_CORE_ENRICHMENT_H_

#include "core/framework.h"
#include "math/matrix.h"

namespace crowdrl::core {

/// Options for labelled-set enrichment (Algorithm 1, lines 4-14).
struct EnrichmentOptions {
  /// The ambiguity threshold epsilon: an object stays unlabelled when its
  /// top-two class confidences differ by at most this.
  double epsilon = 0.85;
  /// Enrichment is skipped until at least this many objects are labelled,
  /// so an untrained / barely trained phi cannot flood the label set.
  size_t min_labelled = 20;
  /// Same guard as a fraction of the workload: enrichment waits until
  /// max(min_labelled, min_labelled_fraction * |O|) objects are labelled.
  /// A classifier fit on a sliver of the data is exactly the overconfident
  /// phi whose composite bias Section V warns about.
  double min_labelled_fraction = 0.2;
};

/// \brief Labelled-set enrichment: rates every unlabelled object with phi
/// and labels those whose top-two confidence gap exceeds epsilon
/// (source kClassifier). Returns the number of objects labelled.
///
/// `class_probs` is phi's prediction for every object, one row per object
/// (RunState::class_probs), or null while phi is untrained. A row of the
/// batch prediction carries the same bits as a single-object prediction,
/// so reading the matrix rates each object exactly as phi would.
///
/// No-op when `class_probs` is null or fewer than `min_labelled` objects
/// are labelled.
size_t EnrichLabelledSet(const Matrix* class_probs,
                         const EnrichmentOptions& options, LabelState* state);

}  // namespace crowdrl::core

#endif  // CROWDRL_CORE_ENRICHMENT_H_
