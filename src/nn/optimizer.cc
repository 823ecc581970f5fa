#include "nn/optimizer.h"

#include <cmath>

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "math/backend.h"
#include "util/logging.h"

namespace crowdrl::nn {

namespace {

// ---------------------------------------------------------------------------
// Adam element kernels, one per SIMD tier (the gemm.cc dispatch pattern).
// Each vector lane runs the scalar sequence below operation for operation:
// the same multiplies, adds, divisions and square root in the same order,
// never fused. IEEE-754 division and square root are correctly rounded,
// like add and multiply, so a lane ends on the scalar bits. Tails shorter
// than a vector run the scalar loop.
// ---------------------------------------------------------------------------

using AdamKernelFn = void (*)(const AdamStepConstants& k, double* value,
                              const double* grad, double* m, double* v,
                              size_t n);

void AdamPortable(const AdamStepConstants& k, double* value,
                  const double* grad, double* m, double* v, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    double g = grad[j] + k.weight_decay * value[j];
    m[j] = k.beta1 * m[j] + (1.0 - k.beta1) * g;
    v[j] = k.beta2 * v[j] + (1.0 - k.beta2) * g * g;
    double m_hat = m[j] / k.bc1;
    double v_hat = v[j] / k.bc2;
    value[j] -= k.learning_rate * m_hat / (std::sqrt(v_hat) + k.epsilon);
  }
}

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define CROWDRL_ADAM_X86_DISPATCH 1

// A fused multiply-add rounds once where the scalar loop rounds twice, so
// contraction is off in both tiers: AVX-512F implies FMA, and AVX2 keeps
// it off in case a later target set adds FMA.
#define CROWDRL_TARGET_AVX2 \
  __attribute__((target("avx2"), optimize("fp-contract=off")))
#define CROWDRL_TARGET_AVX512 \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))

CROWDRL_TARGET_AVX2 void AdamAvx2(const AdamStepConstants& k, double* value,
                                  const double* grad, double* m, double* v,
                                  size_t n) {
  const __m256d wd = _mm256_set1_pd(k.weight_decay);
  const __m256d b1 = _mm256_set1_pd(k.beta1);
  const __m256d one_minus_b1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d b2 = _mm256_set1_pd(k.beta2);
  const __m256d one_minus_b2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bc1 = _mm256_set1_pd(k.bc1);
  const __m256d bc2 = _mm256_set1_pd(k.bc2);
  const __m256d lr = _mm256_set1_pd(k.learning_rate);
  const __m256d eps = _mm256_set1_pd(k.epsilon);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d x = _mm256_loadu_pd(value + j);
    const __m256d g =
        _mm256_add_pd(_mm256_loadu_pd(grad + j), _mm256_mul_pd(wd, x));
    const __m256d mj = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + j)),
                                     _mm256_mul_pd(one_minus_b1, g));
    const __m256d vj =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + j)),
                      _mm256_mul_pd(_mm256_mul_pd(one_minus_b2, g), g));
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    const __m256d m_hat = _mm256_div_pd(mj, bc1);
    const __m256d v_hat = _mm256_div_pd(vj, bc2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, m_hat),
                      _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    _mm256_storeu_pd(value + j, _mm256_sub_pd(x, step));
  }
  AdamPortable(k, value + j, grad + j, m + j, v + j, n - j);
}

CROWDRL_TARGET_AVX512 void AdamAvx512(const AdamStepConstants& k,
                                      double* value, const double* grad,
                                      double* m, double* v, size_t n) {
  const __m512d wd = _mm512_set1_pd(k.weight_decay);
  const __m512d b1 = _mm512_set1_pd(k.beta1);
  const __m512d one_minus_b1 = _mm512_set1_pd(1.0 - k.beta1);
  const __m512d b2 = _mm512_set1_pd(k.beta2);
  const __m512d one_minus_b2 = _mm512_set1_pd(1.0 - k.beta2);
  const __m512d bc1 = _mm512_set1_pd(k.bc1);
  const __m512d bc2 = _mm512_set1_pd(k.bc2);
  const __m512d lr = _mm512_set1_pd(k.learning_rate);
  const __m512d eps = _mm512_set1_pd(k.epsilon);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d x = _mm512_loadu_pd(value + j);
    const __m512d g =
        _mm512_add_pd(_mm512_loadu_pd(grad + j), _mm512_mul_pd(wd, x));
    const __m512d mj = _mm512_add_pd(_mm512_mul_pd(b1, _mm512_loadu_pd(m + j)),
                                     _mm512_mul_pd(one_minus_b1, g));
    const __m512d vj =
        _mm512_add_pd(_mm512_mul_pd(b2, _mm512_loadu_pd(v + j)),
                      _mm512_mul_pd(_mm512_mul_pd(one_minus_b2, g), g));
    _mm512_storeu_pd(m + j, mj);
    _mm512_storeu_pd(v + j, vj);
    const __m512d m_hat = _mm512_div_pd(mj, bc1);
    const __m512d v_hat = _mm512_div_pd(vj, bc2);
    // The zero-masked form with every lane selected is the plain square
    // root; GCC 12's unmasked intrinsic passes an "undefined" vector that
    // -Wmaybe-uninitialized flags under the optimize attribute.
    const __m512d root =
        _mm512_maskz_sqrt_pd(static_cast<__mmask8>(0xFF), v_hat);
    const __m512d step = _mm512_div_pd(_mm512_mul_pd(lr, m_hat),
                                       _mm512_add_pd(root, eps));
    _mm512_storeu_pd(value + j, _mm512_sub_pd(x, step));
  }
  AdamPortable(k, value + j, grad + j, m + j, v + j, n - j);
}

#undef CROWDRL_TARGET_AVX2
#undef CROWDRL_TARGET_AVX512
#endif  // x86-64 GCC

// The kernel of `tier`; on builds without the x86 tiers every tier maps to
// the portable one.
AdamKernelFn AdamKernelFor(math::SimdTier tier) {
#ifdef CROWDRL_ADAM_X86_DISPATCH
  switch (tier) {
    case math::SimdTier::kAvx512:
      return AdamAvx512;
    case math::SimdTier::kAvx2:
      return AdamAvx2;
    case math::SimdTier::kPortable:
      break;
  }
#else
  (void)tier;
#endif
  return AdamPortable;
}

AdamKernelFn ActiveAdamKernel() {
  static const AdamKernelFn kernel = AdamKernelFor(math::ActiveSimdTier());
  return kernel;
}

}  // namespace

void AdamUpdateAtTier(math::SimdTier tier, const AdamStepConstants& k,
                      const ParamView& view, double* m, double* v) {
  CROWDRL_CHECK(static_cast<int>(tier) <=
                static_cast<int>(math::ActiveSimdTier()))
      << "SIMD tier " << math::SimdTierName(tier)
      << " is not supported on this host";
  AdamKernelFor(tier)(k, view.value, view.grad, m, v, view.size);
}

void Optimizer::Step(Mlp* net) {
  CROWDRL_CHECK(net != nullptr);
  std::vector<ParamView> views = net->ParamViews();
  size_t total = 0;
  for (const ParamView& v : views) total += v.size;
  if (bound_size_ == 0) {
    bound_size_ = total;
  } else {
    CROWDRL_CHECK(bound_size_ == total)
        << "optimizer bound to a network of " << bound_size_
        << " parameters, got " << total;
  }
  ApplyUpdate(&views);
  net->ZeroGrad();
}

void Optimizer::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  writer->WriteSize(bound_size_);
}

Status Optimizer::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&bound_size_));
  return Status::Ok();
}

void Optimizer::SaveBuffers(io::Writer* writer,
                            const std::vector<std::vector<double>>& buffers) {
  writer->WriteSize(buffers.size());
  for (const std::vector<double>& buffer : buffers) {
    writer->WriteDoubleVector(buffer);
  }
}

Status Optimizer::LoadBuffers(io::Reader* reader,
                              std::vector<std::vector<double>>* buffers) {
  size_t count = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&count));
  std::vector<std::vector<double>> loaded(count);
  for (std::vector<double>& buffer : loaded) {
    CROWDRL_RETURN_IF_ERROR(reader->ReadDoubleVector(&buffer));
  }
  *buffers = std::move(loaded);
  return Status::Ok();
}

Sgd::Sgd(double learning_rate, double momentum, double weight_decay)
    : learning_rate_(learning_rate),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  CROWDRL_CHECK(learning_rate > 0.0);
  CROWDRL_CHECK(momentum >= 0.0 && momentum < 1.0);
  CROWDRL_CHECK(weight_decay >= 0.0);
}

void Sgd::ApplyUpdate(std::vector<ParamView>* views) {
  if (velocity_.empty()) {
    velocity_.resize(views->size());
    for (size_t i = 0; i < views->size(); ++i) {
      velocity_[i].assign((*views)[i].size, 0.0);
    }
  }
  CROWDRL_CHECK(velocity_.size() == views->size());
  for (size_t i = 0; i < views->size(); ++i) {
    ParamView& view = (*views)[i];
    std::vector<double>& vel = velocity_[i];
    for (size_t j = 0; j < view.size; ++j) {
      double g = view.grad[j] + weight_decay_ * view.value[j];
      vel[j] = momentum_ * vel[j] + g;
      view.value[j] -= learning_rate_ * vel[j];
    }
  }
}

void Sgd::SaveState(io::Writer* writer) const {
  Optimizer::SaveState(writer);
  SaveBuffers(writer, velocity_);
}

Status Sgd::LoadState(io::Reader* reader) {
  CROWDRL_RETURN_IF_ERROR(Optimizer::LoadState(reader));
  return LoadBuffers(reader, &velocity_);
}

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon,
           double weight_decay)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  CROWDRL_CHECK(learning_rate > 0.0);
  CROWDRL_CHECK(beta1 >= 0.0 && beta1 < 1.0);
  CROWDRL_CHECK(beta2 >= 0.0 && beta2 < 1.0);
  CROWDRL_CHECK(epsilon > 0.0);
}

void Adam::SaveState(io::Writer* writer) const {
  Optimizer::SaveState(writer);
  writer->WriteSize(step_);
  SaveBuffers(writer, m_);
  SaveBuffers(writer, v_);
}

Status Adam::LoadState(io::Reader* reader) {
  CROWDRL_RETURN_IF_ERROR(Optimizer::LoadState(reader));
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&step_));
  CROWDRL_RETURN_IF_ERROR(LoadBuffers(reader, &m_));
  return LoadBuffers(reader, &v_);
}

void Adam::ApplyUpdate(std::vector<ParamView>* views) {
  if (m_.empty()) {
    m_.resize(views->size());
    v_.resize(views->size());
    for (size_t i = 0; i < views->size(); ++i) {
      m_[i].assign((*views)[i].size, 0.0);
      v_[i].assign((*views)[i].size, 0.0);
    }
  }
  CROWDRL_CHECK(m_.size() == views->size() && v_.size() == views->size());
  ++step_;
  const AdamStepConstants k{
      learning_rate_, beta1_, beta2_, epsilon_, weight_decay_,
      1.0 - std::pow(beta1_, static_cast<double>(step_)),
      1.0 - std::pow(beta2_, static_cast<double>(step_))};
  const AdamKernelFn kernel = ActiveAdamKernel();
  for (size_t i = 0; i < views->size(); ++i) {
    const ParamView& view = (*views)[i];
    CROWDRL_CHECK(m_[i].size() == view.size && v_[i].size() == view.size);
    kernel(k, view.value, view.grad, m_[i].data(), v_[i].data(), view.size);
  }
}

}  // namespace crowdrl::nn
