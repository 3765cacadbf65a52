#include "src/nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/logging.h"

namespace astraea {

namespace {
constexpr uint32_t kCheckpointMagic = 0x41'53'4D'4C;  // "ASML"
constexpr uint32_t kCheckpointVersion = 1;
}  // namespace

// Runtime-dispatched AVX2 variants of the hot batched kernels. The avx2 clone
// runs the same multiplies and adds in the same order as the baseline — AVX2
// does not enable FMA, so there is no fused rounding — it only widens how many
// of the independent tile lanes execute per instruction. Results stay
// bit-identical across clones and to the per-sample reference path. Disabled
// under sanitizers (ifunc resolvers run before their runtimes initialize).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define ASTRAEA_HOT_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define ASTRAEA_HOT_CLONES
#endif

Mlp::Mlp(std::vector<int> dims, OutputActivation output_activation, Rng* rng)
    : dims_(std::move(dims)), output_activation_(output_activation) {
  ASTRAEA_CHECK(dims_.size() >= 3);  // input, >=1 hidden, output
  for (int d : dims_) {
    ASTRAEA_CHECK(d > 0);
  }
  BuildLayout();
  InitParams(rng);
}

void Mlp::BuildLayout() {
  size_t offset = 0;
  layers_.clear();
  for (size_t i = 0; i + 1 < dims_.size(); ++i) {
    LayerView layer;
    layer.in = dims_[i];
    layer.out = dims_[i + 1];
    layer.w_offset = offset;
    offset += static_cast<size_t>(layer.in) * static_cast<size_t>(layer.out);
    layer.b_offset = offset;
    offset += static_cast<size_t>(layer.out);
    layers_.push_back(layer);
  }
  params_.assign(offset, 0.0f);
}

void Mlp::InitParams(Rng* rng) {
  // Xavier/Glorot uniform: U(-sqrt(6/(in+out)), +sqrt(6/(in+out))); zero bias.
  for (const LayerView& layer : layers_) {
    const float bound = std::sqrt(6.0f / static_cast<float>(layer.in + layer.out));
    for (size_t i = 0; i < static_cast<size_t>(layer.in) * layer.out; ++i) {
      params_[layer.w_offset + i] = static_cast<float>(rng->Uniform(-bound, bound));
    }
  }
  wt_stale_ = true;
}

void Mlp::EnsureGrads() {
  if (grads_.empty()) {
    grads_.assign(params_.size(), 0.0f);
  }
}

std::span<float> Mlp::grads() {
  EnsureGrads();
  return grads_;
}

void Mlp::SetParams(std::span<const float> params) {
  ASTRAEA_CHECK(params.size() == params_.size());
  std::copy(params.begin(), params.end(), params_.begin());
  wt_stale_ = true;
}

void Mlp::AdamStep(Adam* opt, float scale) {
  opt->Step(params_, grads(), scale);
  wt_stale_ = true;
}

const float* Mlp::ForwardParams() const {
  if (wt_stale_) {
    wt_.resize(params_.size());
    for (const LayerView& layer : layers_) {
      const size_t in = static_cast<size_t>(layer.in);
      const size_t out = static_cast<size_t>(layer.out);
      const float* w = params_.data() + layer.w_offset;
      float* wt = wt_.data() + layer.w_offset;
      // 8x8-blocked transpose: full cache-line use on both the reads and the
      // strided writes.
      constexpr size_t kTB = 8;
      for (size_t ob = 0; ob < out; ob += kTB) {
        const size_t oend = std::min(ob + kTB, out);
        for (size_t ib = 0; ib < in; ib += kTB) {
          const size_t iend = std::min(ib + kTB, in);
          for (size_t o = ob; o < oend; ++o) {
            for (size_t i = ib; i < iend; ++i) {
              wt[i * out + o] = w[o * in + i];
            }
          }
        }
      }
      std::copy_n(params_.data() + layer.b_offset, out, wt_.data() + layer.b_offset);
    }
    wt_stale_ = false;
  }
  return wt_.data();
}

void Mlp::ForwardInto(std::span<const float> input, std::vector<std::vector<float>>* pre,
                      std::vector<std::vector<float>>* post) const {
  ASTRAEA_CHECK(static_cast<int>(input.size()) == dims_.front());
  pre->resize(layers_.size());
  post->resize(layers_.size());
  const float* x = input.data();
  size_t x_len = input.size();
  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerView& layer = layers_[l];
    auto& z = (*pre)[l];
    z.assign(static_cast<size_t>(layer.out), 0.0f);
    const float* w = params_.data() + layer.w_offset;
    const float* b = params_.data() + layer.b_offset;
    for (int o = 0; o < layer.out; ++o) {
      float acc = b[o];
      const float* row = w + static_cast<size_t>(o) * layer.in;
      for (size_t i = 0; i < x_len; ++i) {
        acc += row[i] * x[i];
      }
      z[static_cast<size_t>(o)] = acc;
    }
    auto& a = (*post)[l];
    a = z;
    const bool is_last = (l + 1 == layers_.size());
    if (!is_last) {
      for (float& v : a) {
        v = v > 0.0f ? v : 0.0f;  // ReLU
      }
    } else if (output_activation_ == OutputActivation::kTanh) {
      for (float& v : a) {
        v = std::tanh(v);
      }
    }
    x = a.data();
    x_len = a.size();
  }
}

std::vector<float> Mlp::Forward(std::span<const float> input) {
  cached_input_.assign(input.begin(), input.end());
  ForwardInto(input, &cached_pre_, &cached_post_);
  return cached_post_.back();
}

void Mlp::ApplyOutputActivation(bool is_last, float* y, size_t n) const {
  if (!is_last) {
    for (size_t i = 0; i < n; ++i) {
      y[i] = y[i] > 0.0f ? y[i] : 0.0f;  // ReLU
    }
  } else if (output_activation_ == OutputActivation::kTanh) {
    for (size_t i = 0; i < n; ++i) {
      y[i] = std::tanh(y[i]);
    }
  }
}

namespace {

// One register tile of a dense layer: rows [0, kRows) of x (row stride `in`)
// times outputs [o, o + kCols) of the [in x out] transposed weights `wt`. The
// accumulators start at the bias, gather the whole i-reduction in ascending-i
// order without touching y, and are stored once: each output sums exactly the
// per-sample reference's terms in the reference's order, so results are
// bit-identical to it, while the unit-stride k-loop vectorizes.
template <size_t kRows, size_t kCols>
[[gnu::always_inline]] inline void DenseTile(const float* x, size_t in, const float* wt,
                                             const float* b, size_t out, size_t o, float* y) {
  float acc[kRows][kCols];
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t k = 0; k < kCols; ++k) {
      acc[r][k] = b[o + k];
    }
  }
  for (size_t i = 0; i < in; ++i) {
    const float* wti = wt + i * out + o;
    float a[kRows];
    for (size_t r = 0; r < kRows; ++r) {
      a[r] = x[r * in + i];
    }
    // Loop order here changes speed, not results: with k outside r, GCC
    // vectorizes across k; with r outside, GCC 12 vectorizes the i-loop
    // instead and the 4-row tile runs ~10x slower.
    for (size_t k = 0; k < kCols; ++k) {
      const float w = wti[k];
      for (size_t r = 0; r < kRows; ++r) {
        acc[r][k] += a[r] * w;
      }
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t k = 0; k < kCols; ++k) {
      y[r * out + o + k] = acc[r][k];
    }
  }
}

}  // namespace

ASTRAEA_HOT_CLONES
void Mlp::LayerForwardBatch(const float* fp, const LayerView& layer, bool is_last,
                            const float* x, size_t batch, float* y, float* pre) const {
  const float* wt = fp + layer.w_offset;
  const float* b = fp + layer.b_offset;
  const size_t in = static_cast<size_t>(layer.in);
  const size_t out = static_cast<size_t>(layer.out);

  // 4-row x 16-output tiles share each weight load across four rows; the rows
  // left over (all of them below batch 4, e.g. the per-step inference path)
  // take one-row tiles 64 outputs wide, enough independent accumulators to
  // keep the vector adds busy. Narrower output tails fall back to 16-wide and
  // then single-output tiles.
  size_t r = 0;
  for (; r + 4 <= batch; r += 4) {
    const float* xr = x + r * in;
    float* yr = y + r * out;
    size_t o = 0;
    for (; o + 16 <= out; o += 16) {
      DenseTile<4, 16>(xr, in, wt, b, out, o, yr);
    }
    for (; o < out; ++o) {
      DenseTile<4, 1>(xr, in, wt, b, out, o, yr);
    }
  }
  for (; r < batch; ++r) {
    const float* xr = x + r * in;
    float* yr = y + r * out;
    size_t o = 0;
    for (; o + 64 <= out; o += 64) {
      DenseTile<1, 64>(xr, in, wt, b, out, o, yr);
    }
    for (; o + 16 <= out; o += 16) {
      DenseTile<1, 16>(xr, in, wt, b, out, o, yr);
    }
    for (; o < out; ++o) {
      DenseTile<1, 1>(xr, in, wt, b, out, o, yr);
    }
  }

  if (pre != nullptr) {
    std::copy(y, y + batch * out, pre);
  }
  ApplyOutputActivation(is_last, y, batch * out);
}

std::vector<float> Mlp::Infer(std::span<const float> input) const {
  const auto out = InferBatchSpan(input, 1);
  return std::vector<float>(out.begin(), out.end());
}

std::span<const float> Mlp::InferBatchSpan(std::span<const float> inputs, size_t batch) const {
  ASTRAEA_CHECK(inputs.size() == batch * static_cast<size_t>(dims_.front()));
  const float* fp = ForwardParams();
  // Ping-pong between two grow-only scratch buffers; the input itself serves
  // as the first layer's source, so nothing is copied between layers.
  const float* x = inputs.data();
  float* y = nullptr;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerView& layer = layers_[l];
    std::vector<float>& dst = (l % 2 == 0) ? infer_scratch_a_ : infer_scratch_b_;
    const size_t need = batch * static_cast<size_t>(layer.out);
    if (dst.size() < need) {
      dst.resize(need);
    }
    y = dst.data();
    LayerForwardBatch(fp, layer, /*is_last=*/l + 1 == layers_.size(), x, batch, y, nullptr);
    x = y;
  }
  return {y, batch * static_cast<size_t>(dims_.back())};
}

std::span<const float> Mlp::ForwardBatch(std::span<const float> inputs, size_t batch) {
  ASTRAEA_CHECK(inputs.size() == batch * static_cast<size_t>(dims_.front()));
  const float* fp = ForwardParams();
  batch_cached_ = batch;
  batch_input_.assign(inputs.begin(), inputs.end());
  batch_pre_.resize(layers_.size());
  batch_post_.resize(layers_.size());
  const float* x = batch_input_.data();
  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerView& layer = layers_[l];
    const size_t need = batch * static_cast<size_t>(layer.out);
    if (batch_pre_[l].size() < need) {
      batch_pre_[l].resize(need);
    }
    if (batch_post_[l].size() < need) {
      batch_post_[l].resize(need);
    }
    LayerForwardBatch(fp, layer, /*is_last=*/l + 1 == layers_.size(), x, batch,
                      batch_post_[l].data(), batch_pre_[l].data());
    x = batch_post_[l].data();
  }
  return {batch_post_.back().data(), batch * static_cast<size_t>(dims_.back())};
}

ASTRAEA_HOT_CLONES
std::span<const float> Mlp::BackwardBatch(std::span<const float> output_grads, size_t batch,
                                          bool need_input_grad) {
  ASTRAEA_CHECK(batch_cached_ == batch && batch > 0);
  const size_t out_dim = static_cast<size_t>(dims_.back());
  ASTRAEA_CHECK(output_grads.size() == batch * out_dim);
  EnsureGrads();

  std::vector<float>* delta_buf = &batch_delta_a_;
  std::vector<float>* prev_buf = &batch_delta_b_;
  if (delta_buf->size() < batch * out_dim) {
    delta_buf->resize(batch * out_dim);
  }
  std::copy(output_grads.begin(), output_grads.end(), delta_buf->begin());
  // Chain through the output activation.
  if (output_activation_ == OutputActivation::kTanh) {
    const float* y = batch_post_.back().data();
    float* d = delta_buf->data();
    for (size_t i = 0; i < batch * out_dim; ++i) {
      d[i] *= 1.0f - y[i] * y[i];
    }
  }

  for (size_t l = layers_.size(); l-- > 0;) {
    const LayerView& layer = layers_[l];
    const size_t in = static_cast<size_t>(layer.in);
    const size_t out = static_cast<size_t>(layer.out);
    const float* layer_input = (l == 0) ? batch_input_.data() : batch_post_[l - 1].data();
    const float* delta = delta_buf->data();
    float* gw = grads_.data() + layer.w_offset;
    float* gb = grads_.data() + layer.b_offset;
    const float* w = params_.data() + layer.w_offset;

    // Parameter gradients: G[o] += sum_r delta[r,o] * x[r], computed in
    // 4-output x 16-input register tiles. The deltas are first transposed to
    // column-major so the r-reduction reads them unit-stride (a [r,o] walk
    // strides by `out` and wastes 3/4 of every cache line). Each tile loads
    // the current gradient values once, adds the per-sample terms in row order
    // (row 0, row 1, ...), and stores once — the same accumulation sequence as
    // calling the per-sample Backward() in a loop, so results agree
    // bit-for-bit.
    if (dt_scratch_.size() < batch * out) {
      dt_scratch_.resize(batch * out);
    }
    float* dt = dt_scratch_.data();
    {
      // 8x8-blocked transpose: both the [r,o] reads and the [o,r] writes use
      // full cache lines instead of one element per line.
      constexpr size_t kTB = 8;
      for (size_t rb = 0; rb < batch; rb += kTB) {
        const size_t rend = rb + kTB <= batch ? rb + kTB : batch;
        for (size_t ob = 0; ob < out; ob += kTB) {
          const size_t oend = ob + kTB <= out ? ob + kTB : out;
          for (size_t rr = rb; rr < rend; ++rr) {
            const float* dr = delta + rr * out;
            for (size_t oo = ob; oo < oend; ++oo) {
              dt[oo * batch + rr] = dr[oo];
            }
          }
        }
      }
    }
    constexpr size_t kITile = 16;
    size_t o = 0;
    for (; o + 4 <= out; o += 4) {
      float* g0 = gw + (o + 0) * in;
      float* g1 = gw + (o + 1) * in;
      float* g2 = gw + (o + 2) * in;
      float* g3 = gw + (o + 3) * in;
      const float* dt0 = dt + (o + 0) * batch;
      const float* dt1 = dt + (o + 1) * batch;
      const float* dt2 = dt + (o + 2) * batch;
      const float* dt3 = dt + (o + 3) * batch;
      size_t i = 0;
      for (; i + kITile <= in; i += kITile) {
        float a0[kITile], a1[kITile], a2[kITile], a3[kITile];
        for (size_t k = 0; k < kITile; ++k) {
          a0[k] = g0[i + k];
          a1[k] = g1[i + k];
          a2[k] = g2[i + k];
          a3[k] = g3[i + k];
        }
        for (size_t r = 0; r < batch; ++r) {
          const float d0 = dt0[r];
          const float d1 = dt1[r];
          const float d2 = dt2[r];
          const float d3 = dt3[r];
          const float* xr = layer_input + r * in + i;
          for (size_t k = 0; k < kITile; ++k) {
            a0[k] += d0 * xr[k];
            a1[k] += d1 * xr[k];
            a2[k] += d2 * xr[k];
            a3[k] += d3 * xr[k];
          }
        }
        for (size_t k = 0; k < kITile; ++k) {
          g0[i + k] = a0[k];
          g1[i + k] = a1[k];
          g2[i + k] = a2[k];
          g3[i + k] = a3[k];
        }
      }
      for (size_t r = 0; r < batch; ++r) {
        const float* dr = delta + r * out + o;
        const float d0 = dr[0];
        const float d1 = dr[1];
        const float d2 = dr[2];
        const float d3 = dr[3];
        gb[o + 0] += d0;
        gb[o + 1] += d1;
        gb[o + 2] += d2;
        gb[o + 3] += d3;
        const float* xr = layer_input + r * in;
        for (size_t k = i; k < in; ++k) {
          g0[k] += d0 * xr[k];
          g1[k] += d1 * xr[k];
          g2[k] += d2 * xr[k];
          g3[k] += d3 * xr[k];
        }
      }
    }
    for (; o < out; ++o) {
      float* grow = gw + o * in;
      for (size_t r = 0; r < batch; ++r) {
        const float d = delta[r * out + o];
        gb[o] += d;
        const float* xr = layer_input + r * in;
        for (size_t i = 0; i < in; ++i) {
          grow[i] += d * xr[i];
        }
      }
    }

    // Input gradient for the layer below (or the caller, when l == 0):
    // prev[r] = sum_o delta[r,o] * W[o], computed in 4-row x 16-input register
    // tiles over the o-reduction. Per-element terms add from zero in
    // ascending-o order, matching the reference path exactly. Skipped at the
    // first layer when the caller doesn't want input gradients.
    if (l == 0 && !need_input_grad) {
      break;
    }
    if (prev_buf->size() < batch * in) {
      prev_buf->resize(batch * in);
    }
    float* prev = prev_buf->data();
    size_t r = 0;
    for (; r + 4 <= batch; r += 4) {
      float* p0 = prev + (r + 0) * in;
      float* p1 = prev + (r + 1) * in;
      float* p2 = prev + (r + 2) * in;
      float* p3 = prev + (r + 3) * in;
      const float* d0 = delta + (r + 0) * out;
      const float* d1 = delta + (r + 1) * out;
      const float* d2 = delta + (r + 2) * out;
      const float* d3 = delta + (r + 3) * out;
      size_t i = 0;
      for (; i + kITile <= in; i += kITile) {
        float a0[kITile] = {}, a1[kITile] = {}, a2[kITile] = {}, a3[kITile] = {};
        for (size_t oo = 0; oo < out; ++oo) {
          const float* row = w + oo * in + i;
          const float c0 = d0[oo];
          const float c1 = d1[oo];
          const float c2 = d2[oo];
          const float c3 = d3[oo];
          for (size_t k = 0; k < kITile; ++k) {
            a0[k] += c0 * row[k];
            a1[k] += c1 * row[k];
            a2[k] += c2 * row[k];
            a3[k] += c3 * row[k];
          }
        }
        for (size_t k = 0; k < kITile; ++k) {
          p0[i + k] = a0[k];
          p1[i + k] = a1[k];
          p2[i + k] = a2[k];
          p3[i + k] = a3[k];
        }
      }
      for (; i < in; ++i) {
        float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
        for (size_t oo = 0; oo < out; ++oo) {
          const float wv = w[oo * in + i];
          a0 += d0[oo] * wv;
          a1 += d1[oo] * wv;
          a2 += d2[oo] * wv;
          a3 += d3[oo] * wv;
        }
        p0[i] = a0;
        p1[i] = a1;
        p2[i] = a2;
        p3[i] = a3;
      }
    }
    for (; r < batch; ++r) {
      float* pr = prev + r * in;
      const float* dr = delta + r * out;
      std::fill(pr, pr + in, 0.0f);
      for (size_t oo = 0; oo < out; ++oo) {
        const float d = dr[oo];
        const float* row = w + oo * in;
        for (size_t i = 0; i < in; ++i) {
          pr[i] += d * row[i];
        }
      }
    }
    if (l > 0) {
      // Chain through the ReLU of the layer below.
      const float* z = batch_pre_[l - 1].data();
      for (size_t i = 0; i < batch * in; ++i) {
        if (z[i] <= 0.0f) {
          prev[i] = 0.0f;
        }
      }
    }
    std::swap(delta_buf, prev_buf);
  }
  if (!need_input_grad) {
    return {};
  }
  return {delta_buf->data(), batch * static_cast<size_t>(dims_.front())};
}

std::vector<float> Mlp::Backward(std::span<const float> output_grad) {
  ASTRAEA_CHECK(!cached_post_.empty());
  ASTRAEA_CHECK(output_grad.size() == cached_post_.back().size());
  EnsureGrads();

  std::vector<float> delta(output_grad.begin(), output_grad.end());
  // Chain through the output activation.
  if (output_activation_ == OutputActivation::kTanh) {
    const auto& y = cached_post_.back();
    for (size_t i = 0; i < delta.size(); ++i) {
      delta[i] *= 1.0f - y[i] * y[i];
    }
  }

  for (size_t l = layers_.size(); l-- > 0;) {
    const LayerView& layer = layers_[l];
    const std::vector<float>& layer_input =
        (l == 0) ? cached_input_ : cached_post_[l - 1];
    float* gw = grads_.data() + layer.w_offset;
    float* gb = grads_.data() + layer.b_offset;
    const float* w = params_.data() + layer.w_offset;

    // Parameter gradients.
    for (int o = 0; o < layer.out; ++o) {
      const float d = delta[static_cast<size_t>(o)];
      gb[o] += d;
      float* grow = gw + static_cast<size_t>(o) * layer.in;
      for (int i = 0; i < layer.in; ++i) {
        grow[i] += d * layer_input[static_cast<size_t>(i)];
      }
    }

    // Input gradient for the layer below (or the caller, when l == 0).
    std::vector<float> prev_delta(static_cast<size_t>(layer.in), 0.0f);
    for (int o = 0; o < layer.out; ++o) {
      const float d = delta[static_cast<size_t>(o)];
      const float* row = w + static_cast<size_t>(o) * layer.in;
      for (int i = 0; i < layer.in; ++i) {
        prev_delta[static_cast<size_t>(i)] += d * row[i];
      }
    }
    if (l > 0) {
      // Chain through the ReLU of the layer below.
      const auto& z = cached_pre_[l - 1];
      for (size_t i = 0; i < prev_delta.size(); ++i) {
        if (z[i] <= 0.0f) {
          prev_delta[i] = 0.0f;
        }
      }
    }
    delta = std::move(prev_delta);
  }
  return delta;
}

void Mlp::ZeroGrad() { grads_.assign(params_.size(), 0.0f); }

void Mlp::CopyParamsFrom(const Mlp& other) {
  ASTRAEA_CHECK(other.params_.size() == params_.size());
  params_ = other.params_;
  wt_stale_ = true;
}

void Mlp::PolyakUpdateFrom(const Mlp& other, float tau) {
  ASTRAEA_CHECK(other.params_.size() == params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i] = tau * other.params_[i] + (1.0f - tau) * params_[i];
  }
  wt_stale_ = true;
}

void Mlp::Save(BinaryWriter* writer) const {
  writer->WriteU32(kCheckpointMagic);
  writer->WriteU32(kCheckpointVersion);
  writer->WriteU32(static_cast<uint32_t>(output_activation_));
  writer->WriteU64(dims_.size());
  for (int d : dims_) {
    writer->WriteU32(static_cast<uint32_t>(d));
  }
  writer->WriteFloatVec(params_);
}

Mlp Mlp::Load(BinaryReader* reader) {
  if (reader->ReadU32() != kCheckpointMagic) {
    throw SerializationError("bad MLP checkpoint magic");
  }
  if (reader->ReadU32() != kCheckpointVersion) {
    throw SerializationError("unsupported MLP checkpoint version");
  }
  Mlp net;
  net.output_activation_ = static_cast<OutputActivation>(reader->ReadU32());
  const uint64_t ndims = reader->ReadU64();
  if (ndims < 3 || ndims > 64) {
    throw SerializationError("implausible MLP dimension count");
  }
  net.dims_.resize(ndims);
  for (auto& d : net.dims_) {
    d = static_cast<int>(reader->ReadU32());
  }
  // Validate the layer sizes before BuildLayout allocates anything: a
  // truncated or corrupt checkpoint (stale file, failed hot-reload source)
  // must surface as SerializationError — which every caller handles with a
  // fallback — not as bad_alloc from a multi-gigabyte resize.
  uint64_t expected_params = 0;
  for (size_t i = 0; i + 1 < net.dims_.size(); ++i) {
    const int in = net.dims_[i];
    const int out = net.dims_[i + 1];
    if (in < 1 || out < 1 || in > (1 << 20) || out > (1 << 20)) {
      throw SerializationError("implausible MLP layer size in checkpoint");
    }
    expected_params += (static_cast<uint64_t>(in) + 1) * static_cast<uint64_t>(out);
  }
  if (expected_params * sizeof(float) > reader->remaining()) {
    throw SerializationError("MLP checkpoint truncated: fewer bytes than parameters");
  }
  net.BuildLayout();
  std::vector<float> params = reader->ReadFloatVec();
  if (params.size() != net.params_.size()) {
    throw SerializationError("MLP checkpoint parameter count mismatch");
  }
  net.params_ = std::move(params);
  net.wt_stale_ = true;
  return net;
}

Mlp LoadActorFile(const std::string& path) {
  BinaryReader reader(path);  // names `path` when it cannot open it
  try {
    return Mlp::Load(&reader);
  } catch (const SerializationError& e) {
    throw SerializationError(std::string(e.what()) + ": " + path);
  }
}

Adam::Adam(size_t parameter_count, float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps), m_(parameter_count, 0.0f),
      v_(parameter_count, 0.0f) {}

void Adam::SaveState(BinaryWriter* writer) const {
  writer->WriteF32(lr_);
  writer->WriteF32(beta1_);
  writer->WriteF32(beta2_);
  writer->WriteF32(eps_);
  writer->WriteU64(static_cast<uint64_t>(t_));
  writer->WriteFloatVec(m_);
  writer->WriteFloatVec(v_);
}

void Adam::LoadState(BinaryReader* reader) {
  const float lr = reader->ReadF32();
  const float beta1 = reader->ReadF32();
  const float beta2 = reader->ReadF32();
  const float eps = reader->ReadF32();
  const uint64_t t = reader->ReadU64();
  std::vector<float> m = reader->ReadFloatVec();
  std::vector<float> v = reader->ReadFloatVec();
  if (m.size() != m_.size() || v.size() != v_.size()) {
    throw SerializationError("Adam state size mismatch in checkpoint");
  }
  lr_ = lr;
  beta1_ = beta1;
  beta2_ = beta2;
  eps_ = eps;
  t_ = static_cast<int64_t>(t);
  m_ = std::move(m);
  v_ = std::move(v);
}

ASTRAEA_HOT_CLONES
void Adam::Step(std::span<float> params, std::span<const float> grads, float scale) {
  ASTRAEA_CHECK(params.size() == m_.size());
  ASTRAEA_CHECK(grads.size() == m_.size());
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float inv_scale = 1.0f / scale;
  for (size_t i = 0; i < params.size(); ++i) {
    const float g = grads[i] * inv_scale;
    m_[i] = beta1_ * m_[i] + (1.0f - beta1_) * g;
    v_[i] = beta2_ * v_[i] + (1.0f - beta2_) * g * g;
    const float m_hat = m_[i] / bc1;
    const float v_hat = v_[i] / bc2;
    params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
  }
}

}  // namespace astraea
