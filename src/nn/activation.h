#ifndef CROWDRL_NN_ACTIVATION_H_
#define CROWDRL_NN_ACTIVATION_H_

#include <cstddef>

#include "math/matrix.h"

namespace crowdrl::math {
enum class SimdTier;  // Defined in math/backend.h.
}  // namespace crowdrl::math

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
/// is bit-identical to writing the sums and activating them afterwards.
/// ReLU and identity run in one pass on the active SIMD tier's kernel
/// (ReLU as max(v, +0.0) with v first, which is Relu's select bit for
/// bit); sigmoid and tanh activate the written sums. The factorized Q
/// head's layer-0 fill calls it once per pair. `out` may be `a` (in
/// place); it must not otherwise overlap `a` or `b`.
void AddActivate(Activation act, const double* a, const double* b, size_t n,
                 double* out);

/// AddActivate with one SIMD tier's kernel instead of the active tier's,
/// so a test can check every tier the host supports — every `tier` up to
/// `math::ActiveSimdTier()`; a higher tier CHECK-fails.
void AddActivateAtTier(math::SimdTier tier, Activation act, const double* a,
                       const double* b, size_t n, double* out);

/// Multiplies `grad` in place by the activation derivative, evaluated from
/// the *post-activation* values (all supported activations admit this).
void ApplyActivationGrad(Activation act, const Matrix& post, Matrix* grad);

}  // namespace crowdrl::nn

#endif  // CROWDRL_NN_ACTIVATION_H_
