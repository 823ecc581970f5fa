#include "nn/activation.h"

#include <cmath>

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "math/backend.h"
#include "util/logging.h"

namespace crowdrl::nn {

namespace {

// ---------------------------------------------------------------------------
// The add-and-ReLU row kernels behind AddActivate, one per SIMD tier (the
// gemm.cc dispatch pattern): out[i] = a[i] + b[i], then, with kRelu,
// max(v, +0.0) with v first. x86 max returns its second operand unless the
// first is greater, which is Relu's select for NaN and -0.0 too, so every
// tier ends on the portable loop's bits.
// ---------------------------------------------------------------------------

using AddRowFn = void (*)(const double* a, const double* b, size_t n,
                          double* out);

template <bool kRelu>
void AddRowPortable(const double* a, const double* b, size_t n,
                    double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double v = a[i] + b[i];
    out[i] = kRelu ? Relu(v) : v;
  }
}

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define CROWDRL_ACTIVATION_X86_DISPATCH 1

template <bool kRelu>
__attribute__((target("avx2"))) void AddRowAvx2(const double* a,
                                                const double* b, size_t n,
                                                double* out) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    if (kRelu) v = _mm256_max_pd(v, zero);
    _mm256_storeu_pd(out + i, v);
  }
  AddRowPortable<kRelu>(a + i, b + i, n - i, out + i);
}

template <bool kRelu>
__attribute__((target("avx512f"))) void AddRowAvx512(const double* a,
                                                     const double* b,
                                                     size_t n, double* out) {
  const __m512d zero = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d v = _mm512_add_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    if (kRelu) v = _mm512_maskz_max_pd(static_cast<__mmask8>(0xFF), v, zero);
    _mm512_storeu_pd(out + i, v);
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1);
    __m512d v = _mm512_add_pd(_mm512_maskz_loadu_pd(tail, a + i),
                              _mm512_maskz_loadu_pd(tail, b + i));
    if (kRelu) v = _mm512_maskz_max_pd(static_cast<__mmask8>(0xFF), v, zero);
    _mm512_mask_storeu_pd(out + i, tail, v);
  }
}
#endif  // x86-64 GCC

// The kernel of `tier`, with or without the ReLU; on builds without the
// x86 tiers every tier maps to the portable one.
AddRowFn AddRowFor(math::SimdTier tier, bool relu) {
#ifdef CROWDRL_ACTIVATION_X86_DISPATCH
  switch (tier) {
    case math::SimdTier::kAvx512:
      return relu ? AddRowAvx512<true> : AddRowAvx512<false>;
    case math::SimdTier::kAvx2:
      return relu ? AddRowAvx2<true> : AddRowAvx2<false>;
    case math::SimdTier::kPortable:
      break;
  }
#else
  (void)tier;
#endif
  return relu ? AddRowPortable<true> : AddRowPortable<false>;
}

void AddActivateWith(AddRowFn add_relu, AddRowFn add, Activation act,
                     const double* a, const double* b, size_t n,
                     double* out) {
  if (act == Activation::kRelu) {
    add_relu(a, b, n, out);
    return;
  }
  add(a, b, n, out);
  if (act != Activation::kIdentity) ApplyActivationSpan(act, out, n);
}

}  // namespace

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

void AddActivate(Activation act, const double* a, const double* b, size_t n,
                 double* out) {
  static const AddRowFn add_relu = AddRowFor(math::ActiveSimdTier(), true);
  static const AddRowFn add = AddRowFor(math::ActiveSimdTier(), false);
  AddActivateWith(add_relu, add, act, a, b, n, out);
}

void AddActivateAtTier(math::SimdTier tier, Activation act, const double* a,
                       const double* b, size_t n, double* out) {
  CROWDRL_CHECK(static_cast<int>(tier) <=
                static_cast<int>(math::ActiveSimdTier()))
      << "SIMD tier " << math::SimdTierName(tier)
      << " is not supported on this host";
  AddActivateWith(AddRowFor(tier, true), AddRowFor(tier, false), act, a, b,
                  n, out);
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
