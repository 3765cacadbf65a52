// The batched kernels behind Mlp, one variant per instruction set, and the
// one rule that picks between them. Internal to src/nn: Mlp calls Gemm,
// ColumnSum and AdamUpdate; tests reach each variant through KernelsOf and
// ScopedVariant.
//
// Selection (DESIGN.md §6.1). The CPU is read once, on first use, and the
// widest variant it supports is selected; there is no flag and no
// environment variable. Gemm hands the rows that fill a multi-row tile to
// that variant. The rows left over — every row of a batch below four, such as
// per-decision inference — run one-row tiles of the AVX2 variant (of the
// baseline where AVX2 is missing), so small batches execute no 512-bit
// instruction. ColumnSum and AdamUpdate run the selected variant.
//
// Every variant adds each output's terms in the same order (DESIGN.md §6.1)
// and the file builds with -ffp-contract=off, so no target fuses a multiply
// into an add: all variants return the same bits as the per-sample reference.

#ifndef SRC_NN_KERNELS_H_
#define SRC_NN_KERNELS_H_

#include <cstddef>

namespace astraea::nn {

enum class Variant { kBaseline, kAvx2, kAvx512f };

// Adam's per-step constants; see Adam::Step.
struct AdamCoefficients {
  float beta1;
  float beta2;
  float lr;
  float eps;
  float bias_correction1;
  float bias_correction2;
  float inv_scale;
};

// One variant's kernels. Gemm computes
//   c[r, j] = init[r, j] + sum_i a[r, i] * b[i, j]   for r < m, j < n,
// adding the terms in ascending i. a[r, i] is at a + r * a_row + i * a_col
// (a_row k, a_col 1 for a row-major [m x k] matrix; a_row 1, a_col m reads a
// [k x m] matrix transposed). b is row-major [k x n], c is [m x n]. Row r of
// init starts at init + r * init_ld: init_ld 0 repeats one bias row, init ==
// c with init_ld n accumulates into c, and a null init starts at 0.
struct Kernels {
  // Gemm over the leading rows in multi-row tiles; returns how many rows it
  // computed (the rest are fewer than one tile).
  size_t (*gemm_tiles)(const float* a, size_t a_row, size_t a_col, const float* b,
                       const float* init, size_t init_ld, float* c, size_t m, size_t k,
                       size_t n);
  // Gemm over all m rows in one-row tiles.
  void (*gemm_rows)(const float* a, size_t a_row, size_t a_col, const float* b,
                    const float* init, size_t init_ld, float* c, size_t m, size_t k, size_t n);
  // sums[j] += a[0, j] + a[1, j] + ... for j < cols, a row-major [rows x cols].
  void (*column_sum)(const float* a, size_t rows, size_t cols, float* sums);
  // One Adam step over n parameters (Adam::Step's element loop).
  void (*adam)(float* params, float* m, float* v, const float* grads, size_t n,
               const AdamCoefficients& coefficients);
};

const char* VariantName(Variant variant);
// Whether this CPU (and OS) runs `variant`.
bool Supported(Variant variant);
// The widest supported variant.
Variant Selected();
// The kernels of `variant`, which must be Supported.
const Kernels& KernelsOf(Variant variant);

// The entry points Mlp and Adam call, applying the rule above.
void Gemm(const float* a, size_t a_row, size_t a_col, const float* b, const float* init,
          size_t init_ld, float* c, size_t m, size_t k, size_t n);
void ColumnSum(const float* a, size_t rows, size_t cols, float* sums);
void AdamUpdate(float* params, float* m, float* v, const float* grads, size_t n,
                const AdamCoefficients& coefficients);

// For tests: the entry points above run `variant` (which must be Supported)
// in place of the selected one until this object is destroyed. Not for use
// while another thread runs a network.
class ScopedVariant {
 public:
  explicit ScopedVariant(Variant variant);
  ~ScopedVariant();
  ScopedVariant(const ScopedVariant&) = delete;
  ScopedVariant& operator=(const ScopedVariant&) = delete;

 private:
  const Kernels* saved_;
};

}  // namespace astraea::nn

#endif  // SRC_NN_KERNELS_H_
