#include "nn/activation.h"

#include <cmath>

#include "util/logging.h"

namespace crowdrl::nn {

const char* ActivationName(Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
  }
  return "?";
}

void ApplyActivation(Activation act, Matrix* values) {
  CROWDRL_CHECK(values != nullptr);
  ApplyActivationRows(act, values, 0, values->rows());
}

void ApplyActivationRows(Activation act, Matrix* values, size_t row_begin,
                         size_t row_end) {
  CROWDRL_CHECK(values != nullptr);
  CROWDRL_DCHECK(row_begin <= row_end && row_end <= values->rows());
  ApplyActivationSpan(act, values->data().data() + row_begin * values->cols(),
                      (row_end - row_begin) * values->cols());
}

void ApplyActivationSpan(Activation act, double* values, size_t n) {
  double* p = values;
  double* const end = values + n;
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (; p != end; ++p) *p = Relu(*p);
      return;
    case Activation::kSigmoid:
      for (; p != end; ++p) *p = 1.0 / (1.0 + std::exp(-*p));
      return;
    case Activation::kTanh:
      for (; p != end; ++p) *p = std::tanh(*p);
      return;
  }
}

void ApplyActivationGrad(Activation act, const Matrix& post, Matrix* grad) {
  CROWDRL_CHECK(grad != nullptr && post.SameShape(*grad));
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu: {
      // A select, not a branch: the sign of `post` is close to a coin flip,
      // and an unconditional store lets the loop vectorize. Same values as
      // `if (post <= 0) grad = 0`: +0.0 where post is negative or ±0,
      // and grad untouched where post is positive or NaN.
      const double* p = post.data().data();
      double* g = grad->data().data();
      for (size_t i = 0; i < grad->data().size(); ++i) {
        g[i] = p[i] <= 0.0 ? 0.0 : g[i];
      }
      return;
    }
    case Activation::kSigmoid:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        double y = post.data()[i];
        grad->data()[i] *= y * (1.0 - y);
      }
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < grad->data().size(); ++i) {
        double y = post.data()[i];
        grad->data()[i] *= 1.0 - y * y;
      }
      return;
  }
}

}  // namespace crowdrl::nn
