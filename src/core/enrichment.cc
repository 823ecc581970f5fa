#include "core/enrichment.h"

#include <algorithm>

#include "math/vector_ops.h"
#include "util/logging.h"

namespace crowdrl::core {

size_t EnrichLabelledSet(const Matrix* class_probs,
                         const EnrichmentOptions& options,
                         LabelState* state) {
  CROWDRL_CHECK(state != nullptr);
  CROWDRL_CHECK(options.epsilon >= 0.0);
  if (class_probs == nullptr) return 0;
  CROWDRL_CHECK(class_probs->rows() == state->num_objects());
  size_t min_labelled = std::max(
      options.min_labelled,
      static_cast<size_t>(options.min_labelled_fraction *
                          static_cast<double>(state->num_objects())));
  if (state->num_labelled() < min_labelled) return 0;

  const size_t classes = class_probs->cols();
  size_t enriched = 0;
  for (int object : state->UnlabelledObjects()) {
    const double* probs = class_probs->Row(static_cast<size_t>(object));
    if (TopTwoGap(probs, classes) <= options.epsilon) continue;  // Ambiguous.
    state->SetLabel(object, static_cast<int>(Argmax(probs, classes)),
                    LabelSource::kClassifier);
    ++enriched;
  }
  return enriched;
}

}  // namespace crowdrl::core
