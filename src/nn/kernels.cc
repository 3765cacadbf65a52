#include "src/nn/kernels.h"

#include <cmath>

#include "src/util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ASTRAEA_NN_X86 1
#include <immintrin.h>
#else
#define ASTRAEA_NN_X86 0
#endif

namespace astraea::nn {
namespace {

// Gemm rows below this count never reach a variant's multi-row tiles.
constexpr size_t kMinTileRows = 4;

// ---- Portable bodies. Each variant below is one of these always-inline
// bodies compiled for one instruction set; only the lane width differs.

// One register tile: rows [0, kRows) of a (element [r, i] at
// a + r * a_row + i * a_col) times columns [j, j + kCols) of b.
// The accumulators start at init (or 0), gather the whole i-reduction in
// ascending-i order without touching c, and are stored once.
template <size_t kRows, size_t kCols>
[[gnu::always_inline]] inline void Tile(const float* a, size_t a_row, size_t a_col, size_t k,
                                        const float* b, size_t n, const float* init,
                                        size_t init_ld, float* c, size_t j) {
  float acc[kRows][kCols];
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t q = 0; q < kCols; ++q) {
      acc[r][q] = init != nullptr ? init[r * init_ld + j + q] : 0.0f;
    }
  }
  for (size_t i = 0; i < k; ++i) {
    const float* bi = b + i * n + j;
    float ai[kRows];
    for (size_t r = 0; r < kRows; ++r) {
      ai[r] = a[r * a_row + i * a_col];
    }
    // Loop order here changes speed, not results: with q outside r, GCC
    // vectorizes across q; with r outside, GCC 12 vectorizes the i-loop
    // instead and the 4-row tile runs ~10x slower.
    for (size_t q = 0; q < kCols; ++q) {
      const float w = bi[q];
      for (size_t r = 0; r < kRows; ++r) {
        acc[r][q] += ai[r] * w;
      }
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t q = 0; q < kCols; ++q) {
      c[r * n + j + q] = acc[r][q];
    }
  }
}

// 4-row x 16-column tiles, then 4-row x 1-column tiles for the last columns.
[[gnu::always_inline]] inline size_t GemmTilesBody(const float* a, size_t a_row, size_t a_col,
                                                   const float* b, const float* init,
                                                   size_t init_ld, float* c, size_t m, size_t k,
                                                   size_t n) {
  size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const float* ar = a + r * a_row;
    const float* ir = init != nullptr ? init + r * init_ld : nullptr;
    float* cr = c + r * n;
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      Tile<4, 16>(ar, a_row, a_col, k, b, n, ir, init_ld, cr, j);
    }
    for (; j < n; ++j) {
      Tile<4, 1>(ar, a_row, a_col, k, b, n, ir, init_ld, cr, j);
    }
  }
  return r;
}

// One-row tiles 64 columns wide, enough independent accumulators to keep the
// vector adds busy, then 16-wide and single-column tiles.
[[gnu::always_inline]] inline void GemmRowsBody(const float* a, size_t a_row, size_t a_col,
                                                const float* b, const float* init,
                                                size_t init_ld, float* c, size_t m, size_t k,
                                                size_t n) {
  for (size_t r = 0; r < m; ++r) {
    const float* ar = a + r * a_row;
    const float* ir = init != nullptr ? init + r * init_ld : nullptr;
    float* cr = c + r * n;
    size_t j = 0;
    for (; j + 64 <= n; j += 64) {
      Tile<1, 64>(ar, a_row, a_col, k, b, n, ir, init_ld, cr, j);
    }
    for (; j + 16 <= n; j += 16) {
      Tile<1, 16>(ar, a_row, a_col, k, b, n, ir, init_ld, cr, j);
    }
    for (; j < n; ++j) {
      Tile<1, 1>(ar, a_row, a_col, k, b, n, ir, init_ld, cr, j);
    }
  }
}

template <size_t kCols>
[[gnu::always_inline]] inline void SumTile(const float* a, size_t rows, size_t cols,
                                           float* sums, size_t j) {
  float acc[kCols];
  for (size_t q = 0; q < kCols; ++q) {
    acc[q] = sums[j + q];
  }
  for (size_t r = 0; r < rows; ++r) {
    const float* ar = a + r * cols + j;
    for (size_t q = 0; q < kCols; ++q) {
      acc[q] += ar[q];
    }
  }
  for (size_t q = 0; q < kCols; ++q) {
    sums[j + q] = acc[q];
  }
}

[[gnu::always_inline]] inline void ColumnSumBody(const float* a, size_t rows, size_t cols,
                                                 float* sums) {
  size_t j = 0;
  for (; j + 64 <= cols; j += 64) {
    SumTile<64>(a, rows, cols, sums, j);
  }
  for (; j + 16 <= cols; j += 16) {
    SumTile<16>(a, rows, cols, sums, j);
  }
  for (; j < cols; ++j) {
    SumTile<1>(a, rows, cols, sums, j);
  }
}

// The restrict-qualified pointers and the coefficients held in locals are
// what let this loop vectorize: through Adam's own members, every store to
// m or v could have changed a coefficient, so each iteration reloaded them.
[[gnu::always_inline]] inline void AdamBody(float* __restrict params, float* __restrict m,
                                            float* __restrict v, const float* __restrict grads,
                                            size_t n, const AdamCoefficients& coefficients) {
  const float beta1 = coefficients.beta1;
  const float beta2 = coefficients.beta2;
  const float lr = coefficients.lr;
  const float eps = coefficients.eps;
  const float bc1 = coefficients.bias_correction1;
  const float bc2 = coefficients.bias_correction2;
  const float inv_scale = coefficients.inv_scale;
  for (size_t i = 0; i < n; ++i) {
    const float g = grads[i] * inv_scale;
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = m[i] / bc1;
    const float v_hat = v[i] / bc2;
    params[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

// Stamps out one variant's four kernels from the portable bodies, compiled
// with `attr` (a target attribute, or nothing for the baseline).
#define ASTRAEA_NN_PORTABLE_VARIANT(suffix, attr)                                             \
  attr size_t GemmTiles##suffix(const float* a, size_t a_row, size_t a_col, const float* b,  \
                                const float* init, size_t init_ld, float* c, size_t m,        \
                                size_t k, size_t n) {                                         \
    return GemmTilesBody(a, a_row, a_col, b, init, init_ld, c, m, k, n);                      \
  }                                                                                           \
  attr void GemmRows##suffix(const float* a, size_t a_row, size_t a_col, const float* b,     \
                             const float* init, size_t init_ld, float* c, size_t m, size_t k, \
                             size_t n) {                                                      \
    GemmRowsBody(a, a_row, a_col, b, init, init_ld, c, m, k, n);                              \
  }                                                                                           \
  attr void ColumnSum##suffix(const float* a, size_t rows, size_t cols, float* sums) {       \
    ColumnSumBody(a, rows, cols, sums);                                                       \
  }                                                                                           \
  attr void Adam##suffix(float* params, float* m, float* v, const float* grads, size_t n,    \
                         const AdamCoefficients& coefficients) {                              \
    AdamBody(params, m, v, grads, n, coefficients);                                           \
  }

ASTRAEA_NN_PORTABLE_VARIANT(Baseline, )

constexpr Kernels kBaselineKernels = {GemmTilesBaseline, GemmRowsBaseline, ColumnSumBaseline,
                                      AdamBaseline};

#if ASTRAEA_NN_X86

ASTRAEA_NN_PORTABLE_VARIANT(Avx2, __attribute__((target("avx2"))))

constexpr Kernels kAvx2Kernels = {GemmTilesAvx2, GemmRowsAvx2, ColumnSumAvx2, AdamAvx2};

// ---- AVX-512F: explicit zmm register tiles.

#define ASTRAEA_NN_AVX512 __attribute__((target("avx512f"), always_inline)) inline

// kRows rows times kVecs 16-float vectors of columns from j; with kMasked,
// one vector whose lanes outside `mask` are neither read nor written. Same
// per-output order as Tile: start at init, add a[r, i] * b[i, j] by ascending
// i, store once. A multiply and an add, never a fused multiply-add.
template <size_t kRows, size_t kVecs, bool kMasked>
ASTRAEA_NN_AVX512 void Tile512(const float* a, size_t a_row, size_t a_col, size_t k,
                               const float* b, size_t n, const float* init, size_t init_ld,
                               float* c, size_t j, __mmask16 mask) {
  static_assert(!kMasked || kVecs == 1);
  __m512 acc[kRows][kVecs];
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t v = 0; v < kVecs; ++v) {
      if (init == nullptr) {
        acc[r][v] = _mm512_setzero_ps();
      } else if constexpr (kMasked) {
        acc[r][v] = _mm512_maskz_loadu_ps(mask, init + r * init_ld + j);
      } else {
        acc[r][v] = _mm512_loadu_ps(init + r * init_ld + j + 16 * v);
      }
    }
  }
  for (size_t i = 0; i < k; ++i) {
    const float* bi = b + i * n + j;
    __m512 w[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      if constexpr (kMasked) {
        w[v] = _mm512_maskz_loadu_ps(mask, bi);
      } else {
        w[v] = _mm512_loadu_ps(bi + 16 * v);
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      const __m512 ai = _mm512_set1_ps(a[r * a_row + i * a_col]);
      for (size_t v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(ai, w[v]));
      }
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t v = 0; v < kVecs; ++v) {
      float* dst = c + r * n + j + 16 * v;
      if constexpr (kMasked) {
        _mm512_mask_storeu_ps(dst, mask, acc[r][v]);
      } else {
        _mm512_storeu_ps(dst, acc[r][v]);
      }
    }
  }
}

// kRows rows across every column: 32-column tiles (2 x kRows accumulators),
// then one 16-column tile and one masked tile for the last columns.
template <size_t kRows>
ASTRAEA_NN_AVX512 void RowBlock512(const float* a, size_t a_row, size_t a_col, const float* b,
                                   const float* init, size_t init_ld, float* c, size_t k,
                                   size_t n) {
  size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    Tile512<kRows, 2, false>(a, a_row, a_col, k, b, n, init, init_ld, c, j, 0);
  }
  if (j + 16 <= n) {
    Tile512<kRows, 1, false>(a, a_row, a_col, k, b, n, init, init_ld, c, j, 0);
    j += 16;
  }
  if (j < n) {
    const auto mask = static_cast<__mmask16>((1u << (n - j)) - 1u);
    Tile512<kRows, 1, true>(a, a_row, a_col, k, b, n, init, init_ld, c, j, mask);
  }
}

#undef ASTRAEA_NN_AVX512

// 6-row blocks (12 zmm accumulators per 32 columns), then 4-row blocks. A
// one-row tile costs about two rows of a block, so when two or three rows
// would be left over, the last 6-row block becomes two 4-row blocks: at most
// one row is left over once m >= 4.
__attribute__((target("avx512f"))) size_t GemmTilesAvx512(const float* a, size_t a_row,
                                                          size_t a_col, const float* b,
                                                          const float* init, size_t init_ld,
                                                          float* c, size_t m, size_t k,
                                                          size_t n) {
  size_t six_rows = m / 6 * 6;
  if ((m - six_rows == 2 || m - six_rows == 3) && six_rows >= 6) {
    six_rows -= 6;
  }
  size_t r = 0;
  for (; r < six_rows; r += 6) {
    RowBlock512<6>(a + r * a_row, a_row, a_col, b,
                   init != nullptr ? init + r * init_ld : nullptr, init_ld, c + r * n, k, n);
  }
  for (; r + 4 <= m; r += 4) {
    RowBlock512<4>(a + r * a_row, a_row, a_col, b,
                   init != nullptr ? init + r * init_ld : nullptr, init_ld, c + r * n, k, n);
  }
  return r;
}

__attribute__((target("avx512f"))) void ColumnSumAvx512(const float* a, size_t rows,
                                                        size_t cols, float* sums) {
  ColumnSumBody(a, rows, cols, sums);
}

__attribute__((target("avx512f"))) void AdamAvx512(float* params, float* m, float* v,
                                                   const float* grads, size_t n,
                                                   const AdamCoefficients& coefficients) {
  AdamBody(params, m, v, grads, n, coefficients);
}

// One-row tiles stay on the AVX2 code: batches of one to three rows run no
// 512-bit instruction.
constexpr Kernels kAvx512Kernels = {GemmTilesAvx512, GemmRowsAvx2, ColumnSumAvx512,
                                    AdamAvx512};

#endif  // ASTRAEA_NN_X86

#undef ASTRAEA_NN_PORTABLE_VARIANT

// What the CPU runs, read once.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
};

const CpuFeatures& Cpu() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if ASTRAEA_NN_X86
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.avx512f = f.avx2 && __builtin_cpu_supports("avx512f") != 0;
#endif
    return f;
  }();
  return features;
}

// The kernels the entry points run: the selected variant's, unless a
// ScopedVariant holds another.
const Kernels*& Active() {
  static const Kernels* active = &KernelsOf(Selected());
  return active;
}

}  // namespace

const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kBaseline:
      return "baseline";
    case Variant::kAvx2:
      return "avx2";
    case Variant::kAvx512f:
      return "avx512f";
  }
  return "unknown";
}

bool Supported(Variant variant) {
  switch (variant) {
    case Variant::kBaseline:
      return true;
    case Variant::kAvx2:
      return Cpu().avx2;
    case Variant::kAvx512f:
      return Cpu().avx512f;
  }
  return false;
}

Variant Selected() {
  if (Supported(Variant::kAvx512f)) {
    return Variant::kAvx512f;
  }
  return Supported(Variant::kAvx2) ? Variant::kAvx2 : Variant::kBaseline;
}

const Kernels& KernelsOf(Variant variant) {
  ASTRAEA_CHECK(Supported(variant));
#if ASTRAEA_NN_X86
  if (variant == Variant::kAvx512f) {
    return kAvx512Kernels;
  }
  if (variant == Variant::kAvx2) {
    return kAvx2Kernels;
  }
#endif
  return kBaselineKernels;
}

void Gemm(const float* a, size_t a_row, size_t a_col, const float* b, const float* init,
          size_t init_ld, float* c, size_t m, size_t k, size_t n) {
  const Kernels& kernels = *Active();
  const size_t tiled =
      m >= kMinTileRows ? kernels.gemm_tiles(a, a_row, a_col, b, init, init_ld, c, m, k, n) : 0;
  if (tiled < m) {
    kernels.gemm_rows(a + tiled * a_row, a_row, a_col, b,
                      init != nullptr ? init + tiled * init_ld : nullptr, init_ld,
                      c + tiled * n, m - tiled, k, n);
  }
}

void ColumnSum(const float* a, size_t rows, size_t cols, float* sums) {
  Active()->column_sum(a, rows, cols, sums);
}

void AdamUpdate(float* params, float* m, float* v, const float* grads, size_t n,
                const AdamCoefficients& coefficients) {
  Active()->adam(params, m, v, grads, n, coefficients);
}

ScopedVariant::ScopedVariant(Variant variant) : saved_(Active()) {
  Active() = &KernelsOf(variant);
}

ScopedVariant::~ScopedVariant() { Active() = saved_; }

}  // namespace astraea::nn
