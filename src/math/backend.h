#ifndef CROWDRL_MATH_BACKEND_H_
#define CROWDRL_MATH_BACKEND_H_

namespace crowdrl::math {

/// \brief Identity of the process's compute path, for report stamps.
///
/// Every forward — training, the Q network's selection scoring and the
/// classifier's prediction — calls the gemm kernels (math/gemm.h)
/// directly, so there is one implementation to name: the SIMD tier its
/// kernels were dispatched at and the "reference-cpu" backend. Benchmark
/// reports record both so their numbers stay comparable across machines.

/// SIMD ISA tier the process runs its dispatched kernels at.
enum class SimdTier { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// The tier for this process, probed exactly once (first call, via cpuid)
/// and cached. gemm.cc selects its kernels from this same value, so the
/// tier a report names is the tier that ran.
SimdTier ActiveSimdTier();

/// "portable", "avx2", or "avx512".
const char* SimdTierName(SimdTier tier);

/// The single CPU implementation behind every forward.
struct ReferenceCpuBackend {
  const char* Name() const { return "reference-cpu"; }
};

/// The process-wide instance (never null).
inline const ReferenceCpuBackend* ReferenceBackend() {
  static constexpr ReferenceCpuBackend kBackend;
  return &kBackend;
}

}  // namespace crowdrl::math

#endif  // CROWDRL_MATH_BACKEND_H_
