#ifndef CROWDRL_MATH_GEMM_H_
#define CROWDRL_MATH_GEMM_H_

#include <cstddef>

#include "math/matrix.h"
#include "util/thread_pool.h"

namespace crowdrl::math {
enum class SimdTier;  // Defined in math/backend.h.
}  // namespace crowdrl::math

namespace crowdrl::gemm {

/// \brief Transpose-aware, register-tiled GEMM kernels.
///
/// The numeric core behind `Mlp::Forward/Infer/Backward` and everything that
/// funnels through them (Q-network action scoring, classifier retrains in
/// the joint-inference EM loop). Three layout variants so callers never
/// materialize a transposed operand:
///
///   * `MatMulInto`   — C = A · B          (A: m x k, B: k x n)
///   * `MatMulNTInto` — C = A · Bᵀ         (A: m x k, B: n x k)
///   * `MatMulTNInto` — C = Aᵀ · B         (A: k x m, B: k x n)
///
/// **Register tile.** Each SIMD tier computes every product with one
/// kernel: an MR x NR tile of output accumulators (4 x 32 doubles on
/// AVX-512, 4 x 8 on AVX2) that stays in registers for the whole k sweep
/// and is stored once (once per 256-term k panel on deep products). On the
/// last panel the tile applies the product's `Epilogue` to its
/// accumulators before that store. A one-column product (n == 1, the Q
/// network's output layer) puts output rows in the vector lanes instead (8
/// on AVX-512, 4 on AVX2), each lane reading its row of A through a gather.
/// The kernel is chosen by operand layout, tier and n == 1 only, never by
/// FLOP count or chunk size, so the small Q-network and classifier layers
/// and the wide paper-scale net run the same code. The portable tier runs the
/// historical TN schedule (a 16 x 256 output tile taking rank-1 updates)
/// for all three layouts, then the epilogue over the stored rows.
///
/// **Accumulation-order guarantee (load-bearing).** Every output element is
/// produced by one accumulator that starts at +0.0 and consumes its k
/// terms in ascending-k order, one multiply and one add per term, exactly
/// like the historical naive triple loop (which zeroed the output and did
/// `out += a * b` per term). A register accumulator from +0.0 therefore
/// sees the same two roundings per term in the same order and ends on the
/// same bits; the +0.0 start is what makes an all-(-0.0) sum come out +0.0
/// as before. The kernels only reorganize *which elements* are computed
/// when (register tiles, k panels, row-range threading) — never the order
/// of adds within an element, and never partial-sum trees. Results are
/// therefore bit-identical to the pre-kernel implementation at every SIMD
/// tier and thread count (NaN payloads aside), which is what keeps the
/// checkpoint-resume property tests' bit-exact trajectories valid.
///
/// **SIMD dispatch.** The tiles are compiled per ISA tier (portable / AVX2
/// / AVX-512, selected once at runtime via cpuid). Wider vectors evaluate
/// independent output elements in parallel with the same IEEE mul + add
/// sequence per element; FMA contraction is explicitly disabled in the SIMD
/// tiers because fused rounding would break the guarantee above.
///
/// **Threading.** Passing a `ThreadPool` row-tiles the output across
/// workers; each output row is written by exactly one chunk, so threaded
/// results are bit-identical to serial (the same contract as
/// `Mlp::Infer(batch, pool)` relies on, pushed down to the kernel layer).
///
/// The destination must not alias either input. Outputs are resized when
/// the shape differs and the existing allocation is reused otherwise, so
/// steady-state calls are allocation-free.

/// What a product does to each output element after its last k term and
/// before its store: add `bias[j]` (one value per output column; null adds
/// nothing), then, with `relu`, take max(v, +0.0) with v first, which is
/// nn::Relu's select bit for bit (NaN and -0.0 become +0.0). Each element
/// sees one IEEE add and the select after its whole sum, so the result is
/// bit-identical to storing the product and then applying nn::AddActivate
/// to each row. Other activations are the caller's, on the stored sums.
struct Epilogue {
  const double* bias = nullptr;
  bool relu = false;
};

/// C = A · B. `out` is overwritten.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                ThreadPool* pool = nullptr);

/// C = A · Bᵀ with B stored row-major (n x k) — the MLP forward layout
/// (activations x weights), computed without materializing Bᵀ anew:
/// B is packed into `bt_scratch` (any shape; resized and reused across
/// calls — pass a persistent per-call-site matrix to stay allocation-free;
/// nullptr falls back to a thread-local buffer). It is `TransposeInto`
/// followed by `MatMulNTPackedInto`.
void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool = nullptr, const Epilogue& epilogue = {},
                  Matrix* bt_scratch = nullptr);

/// C = A · Bᵀ from Bᵀ packed beforehand (`bt`: k x n, as `TransposeInto`
/// writes it), so a caller that runs many row blocks against one weight
/// matrix packs it once.
void MatMulNTPackedInto(const Matrix& a, const Matrix& bt, Matrix* out,
                        ThreadPool* pool = nullptr,
                        const Epilogue& epilogue = {});

/// C = Aᵀ · B with A stored row-major (k x m) — the MLP weight-gradient
/// layout (gradᵀ x activations), computed directly from the untransposed
/// operand: the kernel reads Aᵀ in place through strides (t ascending, so
/// the per-element order guarantee holds).
void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool = nullptr);

/// Value-returning conveniences for the Into forms above.
Matrix MatMulNT(const Matrix& a, const Matrix& b);
Matrix MatMulTN(const Matrix& a, const Matrix& b);

/// Writes the transpose of `m` into `out` (resized as needed).
void TransposeInto(const Matrix& m, Matrix* out);

/// The same products run with one SIMD tier's kernels instead of the active
/// tier's (serial), so a test can check every tier the host supports —
/// every `tier` up to `math::ActiveSimdTier()`; a higher tier CHECK-fails.
/// Every tier produces the same bits, with or without an epilogue.
void MatMulIntoAtTier(math::SimdTier tier, const Matrix& a, const Matrix& b,
                      Matrix* out);
void MatMulNTIntoAtTier(math::SimdTier tier, const Matrix& a,
                        const Matrix& b, Matrix* out,
                        const Epilogue& epilogue = {});
void MatMulTNIntoAtTier(math::SimdTier tier, const Matrix& a,
                        const Matrix& b, Matrix* out);

}  // namespace crowdrl::gemm

#endif  // CROWDRL_MATH_GEMM_H_
