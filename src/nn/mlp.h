// A small fully-connected network with ReLU hidden layers and a configurable
// output activation, storing all parameters in one flat array so the optimizer
// can treat the model as a single vector.
//
// Backward() both accumulates parameter gradients and returns the gradient
// with respect to the input — the latter is what lets the deterministic policy
// gradient flow from the critic's output through its action input into the
// actor (paper Eq. 9 / DDPG-style chain rule).
//
// The batched entry points (ForwardBatch / BackwardBatch / InferBatchSpan)
// operate on contiguous row-major [batch x dim] buffers and reuse internal
// scratch and activation caches across calls, so steady-state batched work
// performs no heap allocation and each weight matrix is streamed once per batch
// instead of once per sample. The per-sample Forward()/Backward() pair is retained as the
// reference implementation that the batched kernels are parity-tested against.
//
// Only Mlp members write the parameters (there is no mutable params()), so the
// transposed weight cache the forward kernels read can never go stale: every
// writer marks it, and the next forward pass rebuilds it.
//
// Thread-safety: one Mlp instance may be used by one thread at a time (even
// Infer/InferBatchSpan use mutable scratch and may rebuild the weight cache);
// use per-thread copies to parallelize.

#ifndef SRC_NN_MLP_H_
#define SRC_NN_MLP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/serialization.h"

namespace astraea {

class Adam;

enum class OutputActivation : uint32_t { kIdentity = 0, kTanh = 1 };

class Mlp {
 public:
  // `dims` = {input, hidden..., output}; at least one hidden layer.
  Mlp(std::vector<int> dims, OutputActivation output_activation, Rng* rng);

  // Runs the network; caches activations for a subsequent Backward().
  std::vector<float> Forward(std::span<const float> input);

  // Inference-only forward (no caches touched); usable on a const model.
  std::vector<float> Infer(std::span<const float> input) const;

  // Batched inference: `inputs` is row-major [batch x input_size]; returns a
  // [batch x output_size] view. Processes layer-by-layer across the whole
  // batch so the weight matrices stay cache-resident — the mechanism behind
  // the inference server's sublinear scaling (paper §4 / Fig. 16). The view
  // points into a ping-pong scratch buffer owned by the network and stays
  // valid until the next batched call on this instance.
  std::span<const float> InferBatchSpan(std::span<const float> inputs, size_t batch) const;

  // Batched training forward: caches flat per-layer activations for a
  // subsequent BackwardBatch(). Returns a [batch x output_size] view valid
  // until the next batched call on this instance.
  std::span<const float> ForwardBatch(std::span<const float> inputs, size_t batch);

  // Backpropagates dL/d(output); accumulates into the gradient buffer and
  // returns dL/d(input). Must follow a Forward() with the same input.
  std::vector<float> Backward(std::span<const float> output_grad);

  // Batched backprop: `output_grads` is row-major [batch x output_size].
  // Accumulates parameter gradients (identical accumulation order to calling
  // Backward() per sample) and returns a [batch x input_size] view of the
  // input gradients, valid until the next batched call. Must follow a
  // ForwardBatch() with the same batch. Callers that only want parameter
  // gradients (e.g. a critic fit) pass need_input_grad = false to skip the
  // first layer's input-gradient pass; the returned span is then empty.
  std::span<const float> BackwardBatch(std::span<const float> output_grads, size_t batch,
                                       bool need_input_grad = true);

  void ZeroGrad();

  std::span<const float> params() const { return params_; }
  // Replaces every parameter; `params` holds parameter_count() values.
  void SetParams(std::span<const float> params);
  // One optimizer step from the accumulated gradients (Adam::Step semantics).
  void AdamStep(Adam* opt, float scale = 1.0f);
  // The gradient accumulator. The first call to this, ZeroGrad, Backward or
  // BackwardBatch allocates it as parameter_count() zeros, so inference-only
  // nets never hold one.
  std::span<float> grads();

  int input_size() const { return dims_.front(); }
  int output_size() const { return dims_.back(); }
  const std::vector<int>& dims() const { return dims_; }
  size_t parameter_count() const { return params_.size(); }

  // Hard copy of parameters from a same-shaped network.
  void CopyParamsFrom(const Mlp& other);
  // Polyak averaging: params = tau * other + (1 - tau) * params.
  void PolyakUpdateFrom(const Mlp& other, float tau);

  void Save(BinaryWriter* writer) const;
  static Mlp Load(BinaryReader* reader);

 private:
  Mlp() = default;  // for Load

  struct LayerView {
    size_t w_offset;  // row-major [out x in]
    size_t b_offset;
    int in;
    int out;
  };

  void BuildLayout();
  void InitParams(Rng* rng);
  void EnsureGrads();
  // wt_, rebuilt first if any parameter changed since it was last built.
  const float* ForwardParams() const;
  void ForwardInto(std::span<const float> input, std::vector<std::vector<float>>* pre,
                   std::vector<std::vector<float>>* post) const;
  // One dense layer over a whole batch: y[r] = W x[r] + b, then the layer's
  // activation, reading W and b from `fp` (= ForwardParams()). `pre`
  // (optional) receives the pre-activation values.
  void LayerForwardBatch(const float* fp, const LayerView& layer, bool is_last, const float* x,
                         size_t batch, float* y, float* pre) const;
  void ApplyOutputActivation(bool is_last, float* y, size_t n) const;

  std::vector<int> dims_;
  OutputActivation output_activation_ = OutputActivation::kIdentity;
  std::vector<LayerView> layers_;
  std::vector<float> params_;
  std::vector<float> grads_;  // empty until first use (see grads())
  // params_ in the forward kernels' layout: each weight matrix transposed to
  // [in x out], biases as-is, at the same offsets. Built by the first forward
  // pass after a parameter change (never in Load or the constructor);
  // `wt_stale_` is set by every member that writes params_.
  mutable std::vector<float> wt_;
  mutable bool wt_stale_ = true;

  // Caches from the last Forward() (input copy + per-layer pre/post activations).
  std::vector<float> cached_input_;
  std::vector<std::vector<float>> cached_pre_;
  std::vector<std::vector<float>> cached_post_;

  // Flat caches from the last ForwardBatch() (row-major [batch x width]).
  size_t batch_cached_ = 0;
  std::vector<float> batch_input_;
  std::vector<std::vector<float>> batch_pre_;
  std::vector<std::vector<float>> batch_post_;
  // Ping-pong delta buffers for BackwardBatch (result aliases one of them).
  std::vector<float> batch_delta_a_;
  std::vector<float> batch_delta_b_;
  // Ping-pong scratch for inference-only batched passes; mutable so Infer /
  // InferBatchSpan stay const (they still make the instance single-thread only).
  mutable std::vector<float> infer_scratch_a_;
  mutable std::vector<float> infer_scratch_b_;
};

// Reads an actor file: one Save() stream, as Td3Trainer::SaveActor writes it
// and models/astraea_policy_trained.ckpt stores it. The one reader of actor
// files (MlpPolicy::LoadFromFile wraps it; astraea_serve's load and hot
// reload call it). Throws SerializationError naming `path` when the file is
// missing or is not such a stream.
Mlp LoadActorFile(const std::string& path);

// The instruction-set variant the batched kernels selected on this CPU:
// "avx512f", "avx2" or "baseline" (DESIGN.md §6.1).
const char* BatchedKernelVariant();

// Adam optimizer over a flat parameter vector.
class Adam {
 public:
  Adam(size_t parameter_count, float lr, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f);

  // Applies one step using `grads` (same length as params), scaled by 1/scale
  // (pass the batch size when gradients were accumulated over a batch).
  void Step(std::span<float> params, std::span<const float> grads, float scale = 1.0f);

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  int64_t steps() const { return t_; }

  // Full optimizer-state (de)serialization: hyperparameters, step count and
  // both moment vectors. LoadState validates the moment-vector length against
  // this instance's parameter count and throws SerializationError on mismatch.
  void SaveState(BinaryWriter* writer) const;
  void LoadState(BinaryReader* reader);

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<float> m_;
  std::vector<float> v_;
};

}  // namespace astraea

#endif  // SRC_NN_MLP_H_
