#include "math/gemm.h"

#include <algorithm>
#include <functional>

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#include <immintrin.h>
#endif

#include "math/backend.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace crowdrl::gemm {

namespace {

// Per-variant flop-count histograms (2*m*k*n per call), registered
// eagerly so metrics snapshots always carry the gemm keys. Recording is
// one bucket search + a few relaxed atomics per GEMM call — noise next
// to even the smallest kernel — and no spans here: these entry points
// are far too hot for clock reads per call.
struct GemmMetrics {
  obs::Counter* calls;
  obs::Histogram* nn_flops;
  obs::Histogram* nt_flops;
  obs::Histogram* tn_flops;

  GemmMetrics() {
    auto& registry = obs::MetricsRegistry::Get();
    calls = registry.GetCounter("crowdrl.gemm.calls");
    nn_flops = registry.GetHistogram("crowdrl.gemm.nn.flops");
    nt_flops = registry.GetHistogram("crowdrl.gemm.nt.flops");
    tn_flops = registry.GetHistogram("crowdrl.gemm.tn.flops");
  }
};

GemmMetrics& Metrics() {
  static GemmMetrics* const metrics = new GemmMetrics();
  return *metrics;
}

[[maybe_unused]] const GemmMetrics& g_eager_gemm_metrics = Metrics();

inline void RecordGemmCall(obs::Histogram* flops, size_t m, size_t k,
                           size_t n) {
  if (!obs::Enabled()) return;
  Metrics().calls->Inc();
  flops->Record(2 * static_cast<uint64_t>(m) * k * n);
}

// Minimum output rows per threaded chunk (and per serial epilogue block).
constexpr size_t kRowGrain = 64;

// Target chunks per lane when a pool is supplied. Profiling the
// threadpool task_wait_ns/task_run_ns histograms at scoring batch shapes
// (81920 x 12 features) showed fixed 64-row chunks produce 1280 chunks —
// each so short that dispatch wake-up latency dominates run time and the
// 4-thread speedup collapses to ~1.07x. Sizing the grain so each lane
// claims ~4 chunks keeps claim overhead negligible while still load
// balancing; because every chunk computes its rows independently with the
// same per-element ascending-k order, grain size never changes bits.
constexpr size_t kChunksPerLane = 4;

// Below this many multiply-adds a TN product runs serially: handing it to
// the pool costs more than it saves. Threading never changes bits.
constexpr size_t kSerialTnFlops = size_t{1} << 18;

// k panel of the register tiles: a tile's accumulators stay in registers
// for kTileKc terms, then round-trip through the output row once (an exact
// store and reload, so the per-element sum is unchanged). Every Q-network
// and classifier layer (k <= 208) fits one panel; for the wide paper net
// the panel keeps a tile's B slice (kTileKc x one tile width) in L1/L2.
constexpr size_t kTileKc = 256;

// Output tile of the portable schedule: kTnTileI x kTnTileJ doubles
// (32 KB) stay resident across the whole k sweep.
constexpr size_t kTnTileI = 16;
constexpr size_t kTnTileJ = 256;

// ---------------------------------------------------------------------------
// Kernels.
//
// Every product runs as "rows of C = A · B" over raw row-major B (k x n)
// and C (rows x n), with A read through two strides: element (i, t) of the
// left operand is a[i * a_row_stride + t * a_t_stride]. NN passes A as is
// (strides k, 1), NT passes A with B packed as Bᵀ, and TN reads Aᵀ in
// place (strides 1, m). A kernel writes every element of its rows.
//
// The SIMD tiers run a register tile: an MR x NR block of accumulators
// that starts at +0.0, adds a(i, t) * b[t][j] for t ascending (one multiply,
// then one add), and is stored once per k panel. That is exactly the
// sequence of the historical loop, which zeroed the output row and then did
// `out[j] += a(i, t) * b[t][j]` per t: the same two roundings per term, in
// the same order, from the same +0.0 start (+0.0 matters: a sum whose
// terms are all -0.0 is +0.0 from a +0.0 start and -0.0 otherwise). The
// tile only removes the per-term load and store of the output row.
// Vectorization is across independent output elements, so every tier
// produces the same bits. The tile bodies are stamped out per ISA tier with
// GCC target attributes and selected once at runtime; fp-contract is forced
// off where the ISA includes FMA, because a fused multiply-add rounds once
// instead of twice and would change results.
//
// The epilogue (bias add, then the ReLU select) runs on the accumulators
// of the last k panel, before their store, in the SIMD tiers, and on the
// stored rows in the portable tier. Either way an element takes one add
// and the select after its whole sum, so every tier ends on the same bits.
// ReLU is max(v, +0.0) with v first: x86 max returns its second operand
// unless the first is greater, so NaN and -0.0 become +0.0 exactly as
// nn::Relu's `v > 0.0 ? v : 0.0` does.
// ---------------------------------------------------------------------------

using ProductRowsFn = void (*)(const double* a, size_t a_row_stride,
                               size_t a_t_stride, const double* b,
                               double* c, size_t rows, size_t k, size_t n,
                               const Epilogue& epilogue);

// The portable tier keeps the historical TN schedule for every product:
// per kTnTileI x kTnTileJ output tile, the tile is zeroed and then takes
// rank-1 updates for t ascending. The epilogue then runs over the stored
// rows: the reference order the SIMD tiers' in-register epilogue matches.
void ProductRowsPortable(const double* a, size_t a_row_stride,
                         size_t a_t_stride, const double* b, double* c,
                         size_t rows, size_t k, size_t n,
                         const Epilogue& epilogue) {
  std::fill(c, c + rows * n, 0.0);
  for (size_t i0 = 0; i0 < rows; i0 += kTnTileI) {
    const size_t i1 = std::min(i0 + kTnTileI, rows);
    for (size_t j0 = 0; j0 < n; j0 += kTnTileJ) {
      const size_t j1 = std::min(j0 + kTnTileJ, n);
      for (size_t t = 0; t < k; ++t) {
        const double* b_row = b + t * n;
        for (size_t i = i0; i < i1; ++i) {
          const double v = a[i * a_row_stride + t * a_t_stride];
          double* c_row = c + i * n;
          for (size_t j = j0; j < j1; ++j) c_row[j] += v * b_row[j];
        }
      }
    }
  }
  if (epilogue.bias == nullptr && !epilogue.relu) return;
  for (double* c_row = c; c_row != c + rows * n; c_row += n) {
    for (size_t j = 0; j < n; ++j) {
      double v = c_row[j];
      if (epilogue.bias != nullptr) v += epilogue.bias[j];
      c_row[j] = epilogue.relu ? (v > 0.0 ? v : 0.0) : v;
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define CROWDRL_GEMM_X86_DISPATCH 1

// Plain AVX2 (no FMA in the target set, so no contraction is possible).
#define CROWDRL_TARGET_AVX2 __attribute__((target("avx2")))
// AVX-512F implies FMA instructions, so contraction must be disabled
// explicitly to keep the two-rounding mul+add semantics.
#define CROWDRL_TARGET_AVX512 \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))

// The tiles below fully unroll their MR/NV loops (`#pragma GCC unroll`) so
// the accumulator arrays live in registers; without it GCC keeps them in
// memory and stores every accumulator on every k step.

// AVX2 tile: MR rows x NV ymm vectors (4 doubles each). At MR=4, NV=2 the
// 4 x 8 block holds 8 accumulators, 2 b vectors and a broadcast in the 16
// ymm registers. The last vector loads and stores only the lanes in `tail`.
// `bias` is the tile's first column of the epilogue's bias (or null), and
// `last` says this is the product's last k panel.
template <size_t MR, size_t NV>
CROWDRL_TARGET_AVX2 inline void TileAvx2(const double* a, size_t a_rs,
                                         size_t a_ts, const double* b,
                                         double* c, size_t n, size_t k0,
                                         size_t k1, __m256i tail,
                                         const double* bias, bool relu,
                                         bool last) {
  __m256d acc[MR][NV];
#pragma GCC unroll 4
  for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      const double* src = c + r * n + 4 * v;
      acc[r][v] = k0 == 0      ? _mm256_setzero_pd()
                  : v + 1 < NV ? _mm256_loadu_pd(src)
                               : _mm256_maskload_pd(src, tail);
    }
  }
  for (size_t t = k0; t < k1; ++t) {
    const double* a_t = a + t * a_ts;
    const double* b_row = b + t * n;
    __m256d bv[NV];
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      bv[v] = v + 1 < NV ? _mm256_loadu_pd(b_row + 4 * v)
                         : _mm256_maskload_pd(b_row + 4 * v, tail);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < MR; ++r) {
      const __m256d av = _mm256_broadcast_sd(a_t + r * a_rs);
#pragma GCC unroll 4
      for (size_t v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv[v]));
      }
    }
  }
  if (last) {
    const __m256d zero = _mm256_setzero_pd();
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      if (bias != nullptr) {
        const __m256d bias_v = v + 1 < NV
                                   ? _mm256_loadu_pd(bias + 4 * v)
                                   : _mm256_maskload_pd(bias + 4 * v, tail);
#pragma GCC unroll 4
        for (size_t r = 0; r < MR; ++r) {
          acc[r][v] = _mm256_add_pd(acc[r][v], bias_v);
        }
      }
      if (relu) {
#pragma GCC unroll 4
        for (size_t r = 0; r < MR; ++r) {
          acc[r][v] = _mm256_max_pd(acc[r][v], zero);
        }
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      double* dst = c + r * n + 4 * v;
      if (v + 1 < NV) {
        _mm256_storeu_pd(dst, acc[r][v]);
      } else {
        _mm256_maskstore_pd(dst, tail, acc[r][v]);
      }
    }
  }
}

template <size_t NV>
CROWDRL_TARGET_AVX2 void PanelAvx2(const double* a, size_t a_rs,
                                   size_t a_ts, const double* b, double* c,
                                   size_t rows, size_t n, size_t k0,
                                   size_t k1, __m256i tail,
                                   const double* bias, bool relu,
                                   bool last) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    TileAvx2<4, NV>(a + i * a_rs, a_rs, a_ts, b, c + i * n, n, k0, k1, tail,
                    bias, relu, last);
  }
  for (; i < rows; ++i) {
    TileAvx2<1, NV>(a + i * a_rs, a_rs, a_ts, b, c + i * n, n, k0, k1, tail,
                    bias, relu, last);
  }
}

// One-column products (n == 1): G groups of 4 output rows, one ymm
// accumulator per group and one row per lane. A lane starts at +0.0 and
// takes a(i, t) * b[t] for t ascending, one multiply and then one add, as
// the register tile does; a gather reads the group's column of A at term
// t. The whole k sweep stays in registers (panels only bound a tile's B
// slice, and b is one value per term). The last group takes only the
// lanes in `tail`.
template <size_t G>
CROWDRL_TARGET_AVX2 inline void ColumnTileAvx2(const double* a, size_t a_rs,
                                               size_t a_ts, const double* b,
                                               double* c, size_t k,
                                               __m256i tail,
                                               const Epilogue& epilogue) {
  const long long rs = static_cast<long long>(a_rs);
  const __m256i lanes = _mm256_setr_epi64x(0, rs, 2 * rs, 3 * rs);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d acc[G];
#pragma GCC unroll 4
  for (size_t g = 0; g < G; ++g) acc[g] = zero;
  for (size_t t = 0; t < k; ++t) {
    const __m256d bt = _mm256_broadcast_sd(b + t);
    const double* a_t = a + t * a_ts;
#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g) {
      const __m256d mask = g + 1 < G ? all : _mm256_castsi256_pd(tail);
      const __m256d col = _mm256_mask_i64gather_pd(zero, a_t + 4 * g * a_rs,
                                                   lanes, mask, 8);
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(col, bt));
    }
  }
#pragma GCC unroll 4
  for (size_t g = 0; g < G; ++g) {
    if (epilogue.bias != nullptr) {
      acc[g] = _mm256_add_pd(acc[g], _mm256_broadcast_sd(epilogue.bias));
    }
    if (epilogue.relu) acc[g] = _mm256_max_pd(acc[g], zero);
    if (g + 1 < G) {
      _mm256_storeu_pd(c + 4 * g, acc[g]);
    } else {
      _mm256_maskstore_pd(c + 4 * g, tail, acc[g]);
    }
  }
}

CROWDRL_TARGET_AVX2 void ColumnAvx2(const double* a, size_t a_rs,
                                    size_t a_ts, const double* b, double* c,
                                    size_t rows, size_t k,
                                    const Epilogue& epilogue) {
  const __m256i full = _mm256_set1_epi64x(-1);
  size_t i = 0;
  for (; i + 16 <= rows; i += 16) {
    ColumnTileAvx2<4>(a + i * a_rs, a_rs, a_ts, b, c + i, k, full, epilogue);
  }
  for (; i + 4 <= rows; i += 4) {
    ColumnTileAvx2<1>(a + i * a_rs, a_rs, a_ts, b, c + i, k, full, epilogue);
  }
  if (i < rows) {
    const __m256i tail = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(rows - i)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    ColumnTileAvx2<1>(a + i * a_rs, a_rs, a_ts, b, c + i, k, tail, epilogue);
  }
}

CROWDRL_TARGET_AVX2 void ProductRowsAvx2(const double* a, size_t a_rs,
                                         size_t a_ts, const double* b,
                                         double* c, size_t rows, size_t k,
                                         size_t n, const Epilogue& epilogue) {
  if (n == 1) {
    ColumnAvx2(a, a_rs, a_ts, b, c, rows, k, epilogue);
    return;
  }
  constexpr size_t kWidth = 8;
  for (size_t j0 = 0; j0 < n; j0 += kWidth) {
    const size_t width = std::min(kWidth, n - j0);
    const size_t nv = (width + 3) / 4;
    const __m256i tail = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(width - 4 * (nv - 1))),
        _mm256_setr_epi64x(0, 1, 2, 3));
    const double* bias =
        epilogue.bias != nullptr ? epilogue.bias + j0 : nullptr;
    size_t k0 = 0;
    do {  // At least one panel, so k == 0 still stores the +0.0 starts.
      const size_t k1 = std::min(k0 + kTileKc, k);
      const bool last = k1 == k;
      if (nv == 2) {
        PanelAvx2<2>(a, a_rs, a_ts, b + j0, c + j0, rows, n, k0, k1, tail,
                     bias, epilogue.relu, last);
      } else {
        PanelAvx2<1>(a, a_rs, a_ts, b + j0, c + j0, rows, n, k0, k1, tail,
                     bias, epilogue.relu, last);
      }
      k0 = k1;
    } while (k0 < k);
  }
}

// max(v, +0.0) with v first: the ReLU of the AVX-512 epilogue. The
// zero-masked form with every lane selected is the plain max; GCC 12's
// unmasked intrinsic passes an "undefined" vector that
// -Wmaybe-uninitialized flags under the optimize attribute.
CROWDRL_TARGET_AVX512 inline __m512d ReluAvx512(__m512d v) {
  return _mm512_maskz_max_pd(static_cast<__mmask8>(0xFF), v,
                             _mm512_setzero_pd());
}

// AVX-512 tile: MR rows x NV zmm vectors (8 doubles each). At MR=4, NV=4
// the 4 x 32 block holds 16 accumulators plus 4 b vectors and a broadcast
// in the 32 zmm registers. The last vector is masked by `tail`; `bias` and
// `last` as in TileAvx2.
template <size_t MR, size_t NV>
CROWDRL_TARGET_AVX512 inline void TileAvx512(const double* a, size_t a_rs,
                                             size_t a_ts, const double* b,
                                             double* c, size_t n, size_t k0,
                                             size_t k1, __mmask8 tail,
                                             const double* bias, bool relu,
                                             bool last) {
  __m512d acc[MR][NV];
#pragma GCC unroll 4
  for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      const double* src = c + r * n + 8 * v;
      acc[r][v] = k0 == 0      ? _mm512_setzero_pd()
                  : v + 1 < NV ? _mm512_loadu_pd(src)
                               : _mm512_maskz_loadu_pd(tail, src);
    }
  }
  for (size_t t = k0; t < k1; ++t) {
    const double* a_t = a + t * a_ts;
    const double* b_row = b + t * n;
    __m512d bv[NV];
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      bv[v] = v + 1 < NV ? _mm512_loadu_pd(b_row + 8 * v)
                         : _mm512_maskz_loadu_pd(tail, b_row + 8 * v);
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < MR; ++r) {
      const __m512d av = _mm512_set1_pd(a_t[r * a_rs]);
#pragma GCC unroll 4
      for (size_t v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_add_pd(acc[r][v], _mm512_mul_pd(av, bv[v]));
      }
    }
  }
  if (last) {
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      if (bias != nullptr) {
        const __m512d bias_v = v + 1 < NV
                                   ? _mm512_loadu_pd(bias + 8 * v)
                                   : _mm512_maskz_loadu_pd(tail, bias + 8 * v);
#pragma GCC unroll 4
        for (size_t r = 0; r < MR; ++r) {
          acc[r][v] = _mm512_add_pd(acc[r][v], bias_v);
        }
      }
      if (relu) {
#pragma GCC unroll 4
        for (size_t r = 0; r < MR; ++r) {
          acc[r][v] = ReluAvx512(acc[r][v]);
        }
      }
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      double* dst = c + r * n + 8 * v;
      if (v + 1 < NV) {
        _mm512_storeu_pd(dst, acc[r][v]);
      } else {
        _mm512_mask_storeu_pd(dst, tail, acc[r][v]);
      }
    }
  }
}

template <size_t NV>
CROWDRL_TARGET_AVX512 void PanelAvx512(const double* a, size_t a_rs,
                                       size_t a_ts, const double* b,
                                       double* c, size_t rows, size_t n,
                                       size_t k0, size_t k1, __mmask8 tail,
                                       const double* bias, bool relu,
                                       bool last) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    TileAvx512<4, NV>(a + i * a_rs, a_rs, a_ts, b, c + i * n, n, k0, k1,
                      tail, bias, relu, last);
  }
  for (; i < rows; ++i) {
    TileAvx512<1, NV>(a + i * a_rs, a_rs, a_ts, b, c + i * n, n, k0, k1,
                      tail, bias, relu, last);
  }
}

// ColumnTileAvx2 at 8 rows per group.
template <size_t G>
CROWDRL_TARGET_AVX512 inline void ColumnTileAvx512(
    const double* a, size_t a_rs, size_t a_ts, const double* b, double* c,
    size_t k, __mmask8 tail, const Epilogue& epilogue) {
  const long long rs = static_cast<long long>(a_rs);
  const __m512i lanes = _mm512_setr_epi64(0, rs, 2 * rs, 3 * rs, 4 * rs,
                                          5 * rs, 6 * rs, 7 * rs);
  const __m512d zero = _mm512_setzero_pd();
  __m512d acc[G];
#pragma GCC unroll 4
  for (size_t g = 0; g < G; ++g) acc[g] = zero;
  for (size_t t = 0; t < k; ++t) {
    const __m512d bt = _mm512_set1_pd(b[t]);
    const double* a_t = a + t * a_ts;
#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g) {
      const __mmask8 mask = g + 1 < G ? static_cast<__mmask8>(0xFF) : tail;
      const __m512d col = _mm512_mask_i64gather_pd(
          zero, mask, lanes, a_t + 8 * g * a_rs, 8);
      acc[g] = _mm512_add_pd(acc[g], _mm512_mul_pd(col, bt));
    }
  }
#pragma GCC unroll 4
  for (size_t g = 0; g < G; ++g) {
    if (epilogue.bias != nullptr) {
      acc[g] = _mm512_add_pd(acc[g], _mm512_set1_pd(*epilogue.bias));
    }
    if (epilogue.relu) acc[g] = ReluAvx512(acc[g]);
    _mm512_mask_storeu_pd(c + 8 * g,
                          g + 1 < G ? static_cast<__mmask8>(0xFF) : tail,
                          acc[g]);
  }
}

CROWDRL_TARGET_AVX512 void ColumnAvx512(const double* a, size_t a_rs,
                                        size_t a_ts, const double* b,
                                        double* c, size_t rows, size_t k,
                                        const Epilogue& epilogue) {
  const __mmask8 full = 0xFF;
  size_t i = 0;
  for (; i + 32 <= rows; i += 32) {
    ColumnTileAvx512<4>(a + i * a_rs, a_rs, a_ts, b, c + i, k, full,
                        epilogue);
  }
  for (; i + 8 <= rows; i += 8) {
    ColumnTileAvx512<1>(a + i * a_rs, a_rs, a_ts, b, c + i, k, full,
                        epilogue);
  }
  if (i < rows) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (rows - i)) - 1);
    ColumnTileAvx512<1>(a + i * a_rs, a_rs, a_ts, b, c + i, k, tail,
                        epilogue);
  }
}

CROWDRL_TARGET_AVX512 void ProductRowsAvx512(const double* a, size_t a_rs,
                                             size_t a_ts, const double* b,
                                             double* c, size_t rows,
                                             size_t k, size_t n,
                                             const Epilogue& epilogue) {
  if (n == 1) {
    ColumnAvx512(a, a_rs, a_ts, b, c, rows, k, epilogue);
    return;
  }
  constexpr size_t kWidth = 32;
  for (size_t j0 = 0; j0 < n; j0 += kWidth) {
    const size_t width = std::min(kWidth, n - j0);
    const size_t nv = (width + 7) / 8;
    const __mmask8 tail =
        static_cast<__mmask8>((1u << (width - 8 * (nv - 1))) - 1);
    const double* bias =
        epilogue.bias != nullptr ? epilogue.bias + j0 : nullptr;
    size_t k0 = 0;
    do {  // At least one panel, so k == 0 still stores the +0.0 starts.
      const size_t k1 = std::min(k0 + kTileKc, k);
      const bool last = k1 == k;
      switch (nv) {
        case 4:
          PanelAvx512<4>(a, a_rs, a_ts, b + j0, c + j0, rows, n, k0, k1,
                         tail, bias, epilogue.relu, last);
          break;
        case 3:
          PanelAvx512<3>(a, a_rs, a_ts, b + j0, c + j0, rows, n, k0, k1,
                         tail, bias, epilogue.relu, last);
          break;
        case 2:
          PanelAvx512<2>(a, a_rs, a_ts, b + j0, c + j0, rows, n, k0, k1,
                         tail, bias, epilogue.relu, last);
          break;
        default:
          PanelAvx512<1>(a, a_rs, a_ts, b + j0, c + j0, rows, n, k0, k1,
                         tail, bias, epilogue.relu, last);
          break;
      }
      k0 = k1;
    } while (k0 < k);
  }
}

#undef CROWDRL_TARGET_AVX2
#undef CROWDRL_TARGET_AVX512
#endif  // x86-64 GCC

// The host's best tier among those compiled above: the probe sits under
// the same cpp guard as the tiered kernels, so a tier is only ever
// reported if its kernel exists.
math::SimdTier DetectSimdTier() {
#ifdef CROWDRL_GEMM_X86_DISPATCH
  if (__builtin_cpu_supports("avx512f")) return math::SimdTier::kAvx512;
  if (__builtin_cpu_supports("avx2")) return math::SimdTier::kAvx2;
#endif
  return math::SimdTier::kPortable;
}

// The kernel of `tier`; on builds without the x86 tiers every tier maps to
// the portable one.
ProductRowsFn KernelFor(math::SimdTier tier) {
#ifdef CROWDRL_GEMM_X86_DISPATCH
  switch (tier) {
    case math::SimdTier::kAvx512:
      return ProductRowsAvx512;
    case math::SimdTier::kAvx2:
      return ProductRowsAvx2;
    case math::SimdTier::kPortable:
      break;
  }
#else
  (void)tier;
#endif
  return ProductRowsPortable;
}

// Tier selection consumes the process-wide cached probe
// (math::ActiveSimdTier), so the kernels and every report stamp name the
// same tier.
ProductRowsFn ActiveKernel() {
  static const ProductRowsFn kernel = KernelFor(math::ActiveSimdTier());
  return kernel;
}

// The kernel of `tier`, which must not exceed the host's active tier.
ProductRowsFn CheckedKernelFor(math::SimdTier tier) {
  CROWDRL_CHECK(static_cast<int>(tier) <=
                static_cast<int>(math::ActiveSimdTier()))
      << "SIMD tier " << math::SimdTierName(tier)
      << " is not supported on this host";
  return KernelFor(tier);
}

// Shapes `out` as rows x cols, reusing the allocation when possible; the
// kernels overwrite every element.
void Resize(Matrix* out, size_t rows, size_t cols) {
  if (out->rows() != rows || out->cols() != cols) {
    *out = Matrix(rows, cols);
  }
}

// C[r0..r1) = A[r0..r1) · B (A: m x k, B: k x n), then the epilogue.
void NnRows(ProductRowsFn kernel, const Matrix& a, const Matrix& b,
            Matrix* out, size_t r0, size_t r1, const Epilogue& epilogue) {
  kernel(a.data().data() + r0 * a.cols(), a.cols(), 1, b.data().data(),
         out->data().data() + r0 * out->cols(), r1 - r0, a.cols(), b.cols(),
         epilogue);
}

// C[r0..r1) = (Aᵀ · B)[r0..r1) (A: k x m, B: k x n), reading column r0
// onward of A in place.
void TnRows(ProductRowsFn kernel, const Matrix& a, const Matrix& b,
            Matrix* out, size_t r0, size_t r1) {
  kernel(a.data().data() + r0, 1, a.cols(), b.data().data(),
         out->data().data() + r0 * out->cols(), r1 - r0, a.rows(), b.cols(),
         Epilogue{});
}

// Runs `body(r0, r1)` over [0, rows) in row chunks — on the pool when one
// is supplied and the range is worth splitting, serially otherwise. The
// threaded grain adapts to the batch: at least kRowGrain rows, at most
// rows / (lanes * kChunksPerLane), so huge batches get a few large chunks
// per lane instead of thousands of tiny ones. Chunks write disjoint rows,
// so neither threading nor grain choice ever changes results. The body is
// never copied into a heap-allocated closure: the serial path calls it
// directly and the pool gets a reference to it.
template <typename Body>
void RunRowChunks(ThreadPool* pool, size_t rows, const Body& body) {
  if (pool != nullptr && rows > kRowGrain) {
    const size_t lanes = static_cast<size_t>(pool->num_threads());
    const size_t grain =
        std::max(kRowGrain, rows / (lanes * kChunksPerLane));
    pool->ParallelFor(0, rows, grain, std::cref(body));
    return;
  }
  for (size_t r0 = 0; r0 < rows; r0 += kRowGrain) {
    body(r0, std::min(r0 + kRowGrain, rows));
  }
}

void MatMul(ProductRowsFn kernel, const Matrix& a, const Matrix& b,
            Matrix* out, ThreadPool* pool) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(a.cols() == b.rows())
      << "matmul shape mismatch: " << a.cols() << " vs " << b.rows();
  CROWDRL_DCHECK(out != &a && out != &b);
  RecordGemmCall(Metrics().nn_flops, a.rows(), a.cols(), b.cols());
  Resize(out, a.rows(), b.cols());
  RunRowChunks(pool, a.rows(), [&](size_t r0, size_t r1) {
    NnRows(kernel, a, b, out, r0, r1, Epilogue{});
  });
}

// C = A · Bᵀ from `bt` = Bᵀ (k x n). Each row chunk runs the epilogue
// inside its kernel call, so pooled chunks apply it to their own rows.
void MatMulNTPacked(ProductRowsFn kernel, const Matrix& a, const Matrix& bt,
                    Matrix* out, ThreadPool* pool, const Epilogue& epilogue) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(a.cols() == bt.rows())
      << "matmul shape mismatch (NT): " << a.cols() << " vs " << bt.rows();
  CROWDRL_DCHECK(out != &a && out != &bt);
  RecordGemmCall(Metrics().nt_flops, a.rows(), a.cols(), bt.cols());
  Resize(out, a.rows(), bt.cols());
  RunRowChunks(pool, a.rows(), [&](size_t r0, size_t r1) {
    NnRows(kernel, a, bt, out, r0, r1, epilogue);
  });
}

void MatMulNT(ProductRowsFn kernel, const Matrix& a, const Matrix& b,
              Matrix* out, ThreadPool* pool, const Epilogue& epilogue,
              Matrix* bt_scratch) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(a.cols() == b.cols())
      << "matmul shape mismatch (NT): " << a.cols() << " vs " << b.cols();
  CROWDRL_DCHECK(out != &a && out != &b && bt_scratch != &a &&
                 bt_scratch != &b && bt_scratch != out);
  thread_local Matrix local_bt;
  Matrix* bt = bt_scratch != nullptr ? bt_scratch : &local_bt;
  TransposeInto(b, bt);
  MatMulNTPacked(kernel, a, *bt, out, pool, epilogue);
}

void MatMulTN(ProductRowsFn kernel, const Matrix& a, const Matrix& b,
              Matrix* out, ThreadPool* pool) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(a.rows() == b.rows())
      << "matmul shape mismatch (TN): " << a.rows() << " vs " << b.rows();
  CROWDRL_DCHECK(out != &a && out != &b);
  RecordGemmCall(Metrics().tn_flops, a.cols(), a.rows(), b.cols());
  Resize(out, a.cols(), b.cols());
  if (a.rows() == 0) {
    out->Fill(0.0);  // Empty sums; A has no storage to read through.
    return;
  }
  const size_t work = a.cols() * b.cols() * a.rows();
  RunRowChunks(work < kSerialTnFlops ? nullptr : pool, a.cols(),
               [&](size_t r0, size_t r1) {
                 TnRows(kernel, a, b, out, r0, r1);
               });
}

}  // namespace

void TransposeInto(const Matrix& m, Matrix* out) {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_DCHECK(out != &m);
  if (out->rows() != m.cols() || out->cols() != m.rows()) {
    *out = Matrix(m.cols(), m.rows());
  }
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  for (size_t r = 0; r < rows; ++r) {
    const double* src = m.Row(r);
    double* dst = out->data().data() + r;
    for (size_t c = 0; c < cols; ++c) dst[c * rows] = src[c];
  }
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                ThreadPool* pool) {
  MatMul(ActiveKernel(), a, b, out, pool);
}

void MatMulNTInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool, const Epilogue& epilogue,
                  Matrix* bt_scratch) {
  MatMulNT(ActiveKernel(), a, b, out, pool, epilogue, bt_scratch);
}

void MatMulNTPackedInto(const Matrix& a, const Matrix& bt, Matrix* out,
                        ThreadPool* pool, const Epilogue& epilogue) {
  MatMulNTPacked(ActiveKernel(), a, bt, out, pool, epilogue);
}

void MatMulTNInto(const Matrix& a, const Matrix& b, Matrix* out,
                  ThreadPool* pool) {
  MatMulTN(ActiveKernel(), a, b, out, pool);
}

Matrix MatMulNT(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulNTInto(a, b, &out);
  return out;
}

Matrix MatMulTN(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTNInto(a, b, &out);
  return out;
}

void MatMulIntoAtTier(math::SimdTier tier, const Matrix& a, const Matrix& b,
                      Matrix* out) {
  MatMul(CheckedKernelFor(tier), a, b, out, nullptr);
}

void MatMulNTIntoAtTier(math::SimdTier tier, const Matrix& a,
                        const Matrix& b, Matrix* out,
                        const Epilogue& epilogue) {
  MatMulNT(CheckedKernelFor(tier), a, b, out, nullptr, epilogue, nullptr);
}

void MatMulTNIntoAtTier(math::SimdTier tier, const Matrix& a,
                        const Matrix& b, Matrix* out) {
  MatMulTN(CheckedKernelFor(tier), a, b, out, nullptr);
}

}  // namespace crowdrl::gemm

namespace crowdrl::math {

SimdTier ActiveSimdTier() {
  static const SimdTier tier = gemm::DetectSimdTier();
  return tier;
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kPortable:
      break;
  }
  return "portable";
}

}  // namespace crowdrl::math
