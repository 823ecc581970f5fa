#ifndef CROWDRL_NN_ACTIVATION_H_
#define CROWDRL_NN_ACTIVATION_H_

#include <cstddef>

#include "math/matrix.h"

namespace crowdrl::nn {

/// Element-wise nonlinearity applied after a linear layer.
///
/// Softmax is deliberately absent: multi-class outputs use identity logits
/// plus `SoftmaxCrossEntropyLoss`, which differentiates through the softmax
/// analytically (and, for two classes, is exactly the paper's "sigmoid
/// output layer").
enum class Activation { kIdentity, kRelu, kSigmoid, kTanh };

const char* ActivationName(Activation act);

/// Applies the activation element-wise, in place.
void ApplyActivation(Activation act, Matrix* values);

/// Applies the activation to rows [row_begin, row_end) only;
/// `ApplyActivation` is the whole-matrix special case and routes through
/// the same arithmetic.
void ApplyActivationRows(Activation act, Matrix* values, size_t row_begin,
                         size_t row_end);

/// The n values at `values`, in place; the span form of the two above.
void ApplyActivationSpan(Activation act, double* values, size_t n);

/// The ReLU select of every forward: a compare with NaN is false, so NaN
/// and -0.0 both become +0.0.
inline double Relu(double v) { return v > 0.0 ? v : 0.0; }

/// out[i] = act(a[i] + b[i]) for i < n: one IEEE add per element, then
/// the activation exactly as ApplyActivationSpan applies it, so the result
/// is bit-identical to writing the sums and activating them afterwards —
/// in one pass for ReLU. The layer tails that produce a row of sums (the
/// MLP's bias epilogue, the factorized Q head's layer 0) call it per row
/// while the row is hot; it is inline because those calls sit in the
/// forward's innermost loops. `out` may be `a` (in place); it must not
/// otherwise overlap `a` or `b`.
inline void AddActivate(Activation act, const double* a, const double* b,
                        size_t n, double* out) {
  if (act == Activation::kRelu) {
    for (size_t i = 0; i < n; ++i) out[i] = Relu(a[i] + b[i]);
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
  if (act != Activation::kIdentity) ApplyActivationSpan(act, out, n);
}

/// Multiplies `grad` in place by the activation derivative, evaluated from
/// the *post-activation* values (all supported activations admit this).
void ApplyActivationGrad(Activation act, const Matrix& post, Matrix* grad);

}  // namespace crowdrl::nn

#endif  // CROWDRL_NN_ACTIVATION_H_
