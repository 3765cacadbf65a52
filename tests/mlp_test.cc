#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>

#include "src/nn/mlp.h"

namespace astraea {
namespace {

// The paper's network shapes (DESIGN.md §1): 40 local features in, 53 for
// the critic (12 global + 40 local + 1 action), 256/128/64 hidden.
const std::vector<int> kActorDims = {40, 256, 128, 64, 1};
const std::vector<int> kCriticDims = {53, 256, 128, 64, 1};

std::vector<float> RandomInputs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  return v;
}

// Every parameter, biases included, uniform in [-0.1, 0.1]. A fresh net's
// biases are zero, and with zero biases adding the bias first or last gives
// the same bits, so the exactness tests need nonzero ones.
void RandomizeParams(Mlp* net, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> params(net->parameter_count());
  for (auto& p : params) {
    p = static_cast<float>(rng.Uniform(-0.1, 0.1));
  }
  net->SetParams(params);
}

// Bitwise float equality: unlike EXPECT_FLOAT_EQ, no ULP tolerance.
::testing::AssertionResult SameBits(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i])) {
      return ::testing::AssertionFailure() << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// A batched result copied out of the network's inference scratch, which the
// next batched call on that network overwrites.
std::vector<float> Copy(std::span<const float> view) { return {view.begin(), view.end()}; }

TEST(MlpTest, ShapesAndDeterminism) {
  Rng rng(1);
  Mlp net({4, 8, 8, 2}, OutputActivation::kTanh, &rng);
  EXPECT_EQ(net.input_size(), 4);
  EXPECT_EQ(net.output_size(), 2);
  const std::vector<float> x = {0.1f, -0.2f, 0.3f, 0.4f};
  const auto y1 = net.Infer(x);
  const auto y2 = net.Infer(x);
  ASSERT_EQ(y1.size(), 2u);
  EXPECT_EQ(y1, y2);
  for (float v : y1) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(MlpTest, ForwardMatchesInfer) {
  Rng rng(2);
  Mlp net({3, 16, 1}, OutputActivation::kIdentity, &rng);
  RandomizeParams(&net, 5);
  const std::vector<float> x = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(net.Forward(x), net.Infer(x));
}

TEST(MlpTest, InferBatchMatchesPerSample) {
  Rng rng(3);
  Mlp net({5, 32, 16, 2}, OutputActivation::kTanh, &rng);
  RandomizeParams(&net, 4);
  const size_t batch = 7;
  std::vector<float> inputs(batch * 5);
  Rng data_rng(9);
  for (auto& v : inputs) {
    v = static_cast<float>(data_rng.Uniform(-1.0, 1.0));
  }
  const std::vector<float> batched = Copy(net.InferBatchSpan(inputs, batch));
  ASSERT_EQ(batched.size(), batch * 2);
  for (size_t i = 0; i < batch; ++i) {
    const auto single =
        net.Infer(std::span<const float>(inputs.data() + i * 5, 5));
    EXPECT_TRUE(SameBits(std::span<const float>(batched).subspan(i * 2, 2), single))
        << "row " << i;
  }
}

// At the paper's widths every tile shape of the forward kernel runs: 4-row x
// 16-output tiles, one-row 64-output tiles for the leftover rows, and the
// single-output tiles of the scalar head. Each must reproduce the per-sample
// reference bit for bit.
TEST(MlpTest, InferBatchMatchesForwardBitwiseAtPaperWidths) {
  std::vector<size_t> batches;
  for (size_t b = 1; b <= 17; ++b) {
    batches.push_back(b);
  }
  batches.push_back(64);
  batches.push_back(192);
  for (const auto& [dims, activation] :
       {std::pair{kActorDims, OutputActivation::kTanh},
        std::pair{kCriticDims, OutputActivation::kIdentity}}) {
    Rng rng(41);
    Mlp net(dims, activation, &rng);
    RandomizeParams(&net, 43);
    const size_t in = static_cast<size_t>(dims.front());
    for (const size_t batch : batches) {
      const std::vector<float> inputs = RandomInputs(batch * in, 42 + batch);
      const std::vector<float> batched = Copy(net.InferBatchSpan(inputs, batch));
      for (size_t r = 0; r < batch; ++r) {
        const auto single = net.Forward(std::span<const float>(inputs).subspan(r * in, in));
        EXPECT_TRUE(SameBits(std::span<const float>(batched).subspan(r, 1), single))
            << "in " << in << " batch " << batch << " row " << r;
      }
    }
  }
}

TEST(MlpTest, ForwardBatchMatchesPerRowInferExactly) {
  Rng rng(31);
  Mlp net({6, 24, 12, 3}, OutputActivation::kTanh, &rng);
  RandomizeParams(&net, 30);
  const size_t batch = 17;
  std::vector<float> inputs(batch * 6);
  Rng data_rng(32);
  for (auto& v : inputs) {
    v = static_cast<float>(data_rng.Uniform(-2.0, 2.0));
  }
  const auto batched = net.ForwardBatch(inputs, batch);
  ASSERT_EQ(batched.size(), batch * 3);
  for (size_t r = 0; r < batch; ++r) {
    const auto single = net.Infer(std::span<const float>(inputs.data() + r * 6, 6));
    for (size_t o = 0; o < 3; ++o) {
      EXPECT_EQ(batched[r * 3 + o], single[o]) << "row " << r << " out " << o;
    }
  }
}

TEST(MlpTest, BackwardBatchMatchesPerSampleBackwardExactly) {
  const std::vector<int> dims = {5, 16, 8, 2};
  Rng rng_a(33);
  Mlp batched_net(dims, OutputActivation::kTanh, &rng_a);
  Rng rng_b(33);
  Mlp reference_net(dims, OutputActivation::kTanh, &rng_b);

  const size_t batch = 9;
  std::vector<float> inputs(batch * 5);
  std::vector<float> out_grads(batch * 2);
  Rng data_rng(34);
  for (auto& v : inputs) {
    v = static_cast<float>(data_rng.Uniform(-1.5, 1.5));
  }
  for (auto& v : out_grads) {
    v = static_cast<float>(data_rng.Uniform(-1.0, 1.0));
  }

  batched_net.ZeroGrad();
  batched_net.ForwardBatch(inputs, batch);
  const auto batched_dx = batched_net.BackwardBatch(out_grads, batch);

  reference_net.ZeroGrad();
  std::vector<float> reference_dx;
  for (size_t r = 0; r < batch; ++r) {
    reference_net.Forward(std::span<const float>(inputs.data() + r * 5, 5));
    const auto dx =
        reference_net.Backward(std::span<const float>(out_grads.data() + r * 2, 2));
    reference_dx.insert(reference_dx.end(), dx.begin(), dx.end());
  }

  auto bg = batched_net.grads();
  auto rg = reference_net.grads();
  ASSERT_EQ(bg.size(), rg.size());
  for (size_t i = 0; i < bg.size(); ++i) {
    EXPECT_EQ(bg[i], rg[i]) << "grad index " << i;
  }
  ASSERT_EQ(batched_dx.size(), reference_dx.size());
  for (size_t i = 0; i < batched_dx.size(); ++i) {
    EXPECT_EQ(batched_dx[i], reference_dx[i]) << "input grad index " << i;
  }
}

TEST(MlpTest, BatchedScratchReusesAcrossVaryingBatchSizes) {
  Rng rng(35);
  Mlp net({4, 10, 2}, OutputActivation::kIdentity, &rng);
  Rng data_rng(36);
  std::vector<float> big(12 * 4);
  for (auto& v : big) {
    v = static_cast<float>(data_rng.Uniform(-1.0, 1.0));
  }
  // Large batch, then a smaller one reusing the same scratch, then repeat the
  // large one: answers must be stable call-to-call.
  const std::vector<float> first = Copy(net.InferBatchSpan(big, 12));
  const std::vector<float> small =
      Copy(net.InferBatchSpan(std::span<const float>(big.data(), 3 * 4), 3));
  const std::vector<float> again = Copy(net.InferBatchSpan(big, 12));
  EXPECT_EQ(first, again);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], first[i]);
  }
}

// Finite-difference gradient check: both parameter grads and input grads.
TEST(MlpTest, GradientsMatchFiniteDifferences) {
  Rng rng(4);
  Mlp net({3, 6, 4, 1}, OutputActivation::kIdentity, &rng);
  const std::vector<float> x = {0.5f, -0.3f, 0.8f};

  // Loss = y (identity on the scalar output), so dL/dy = 1.
  net.ZeroGrad();
  net.Forward(x);
  const float dy[1] = {1.0f};
  const std::vector<float> dx = net.Backward(dy);

  const float eps = 1e-3f;
  // Check a spread of parameter gradients. Each probe goes through
  // SetParams, the only way to write parameters from outside the net.
  std::vector<float> params(net.params().begin(), net.params().end());
  const std::vector<float> grads(net.grads().begin(), net.grads().end());
  for (size_t i = 0; i < params.size(); i += std::max<size_t>(params.size() / 17, 1)) {
    const float original = params[i];
    params[i] = original + eps;
    net.SetParams(params);
    const float up = net.Infer(x)[0];
    params[i] = original - eps;
    net.SetParams(params);
    const float down = net.Infer(x)[0];
    params[i] = original;
    net.SetParams(params);
    const float fd = (up - down) / (2 * eps);
    EXPECT_NEAR(grads[i], fd, 5e-3) << "param index " << i;
  }

  // Input gradients.
  for (size_t i = 0; i < x.size(); ++i) {
    std::vector<float> xp = x;
    xp[i] += eps;
    const float up = net.Infer(xp)[0];
    xp[i] = x[i] - eps;
    const float down = net.Infer(xp)[0];
    const float fd = (up - down) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, 5e-3) << "input index " << i;
  }
}

TEST(MlpTest, TanhOutputGradientCheck) {
  Rng rng(5);
  Mlp net({2, 8, 1}, OutputActivation::kTanh, &rng);
  const std::vector<float> x = {0.7f, -0.4f};
  net.ZeroGrad();
  net.Forward(x);
  const float dy[1] = {1.0f};
  const std::vector<float> dx = net.Backward(dy);

  const float eps = 1e-3f;
  std::vector<float> xp = x;
  xp[0] += eps;
  const float up = net.Infer(xp)[0];
  xp[0] = x[0] - eps;
  const float down = net.Infer(xp)[0];
  EXPECT_NEAR(dx[0], (up - down) / (2 * eps), 5e-3);
}

TEST(MlpTest, GradientDescentFitsXor) {
  // A classic sanity check that the full train loop learns a nonlinear map.
  Rng rng(6);
  Mlp net({2, 16, 16, 1}, OutputActivation::kTanh, &rng);
  Adam opt(net.parameter_count(), 0.01f);
  const float inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const float targets[4] = {-0.8f, 0.8f, 0.8f, -0.8f};

  for (int epoch = 0; epoch < 800; ++epoch) {
    net.ZeroGrad();
    for (int i = 0; i < 4; ++i) {
      const float y = net.Forward(std::span<const float>(inputs[i], 2))[0];
      const float dy[1] = {2.0f * (y - targets[i])};
      net.Backward(dy);
    }
    net.AdamStep(&opt, 4.0f);
  }
  for (int i = 0; i < 4; ++i) {
    const float y = net.Infer(std::span<const float>(inputs[i], 2))[0];
    EXPECT_NEAR(y, targets[i], 0.25f) << "pattern " << i;
  }
}

TEST(MlpTest, PolyakBlendsParameters) {
  Rng rng(7);
  Mlp a({2, 4, 1}, OutputActivation::kIdentity, &rng);
  Mlp b({2, 4, 1}, OutputActivation::kIdentity, &rng);
  const float a0 = a.params()[0];
  const float b0 = b.params()[0];
  b.PolyakUpdateFrom(a, 0.25f);
  EXPECT_FLOAT_EQ(b.params()[0], 0.25f * a0 + 0.75f * b0);
}

// The forward kernels read a transposed copy of the weights. After every way
// parameters can change, the next Infer must equal that of a net that never
// ran a forward pass and holds the same parameters — and must differ from the
// answer before the change, so the check cannot pass vacuously.
void ExpectInferFreshAfter(const char* what, const std::function<void(Mlp*)>& change) {
  SCOPED_TRACE(what);
  Rng rng(51);
  Mlp net(kActorDims, OutputActivation::kTanh, &rng);
  const std::vector<float> x = RandomInputs(2 * 40, 52);
  const std::vector<float> before = Copy(net.InferBatchSpan(x, 2));  // builds the cache
  change(&net);
  Rng fresh_rng(53);
  Mlp fresh(kActorDims, OutputActivation::kTanh, &fresh_rng);
  fresh.SetParams(net.params());
  const std::vector<float> after = Copy(net.InferBatchSpan(x, 2));
  EXPECT_TRUE(SameBits(after, fresh.InferBatchSpan(x, 2)));
  EXPECT_FALSE(SameBits(after, before));
  EXPECT_TRUE(SameBits(net.Infer(std::span<const float>(x).first(40)),
                       std::span<const float>(after).first(1)));
}

TEST(MlpTest, WeightCacheFollowsEveryParameterChange) {
  Rng other_rng(54);
  const Mlp other(kActorDims, OutputActivation::kTanh, &other_rng);
  ExpectInferFreshAfter("SetParams", [&](Mlp* net) { net->SetParams(other.params()); });
  ExpectInferFreshAfter("CopyParamsFrom", [&](Mlp* net) { net->CopyParamsFrom(other); });
  ExpectInferFreshAfter("PolyakUpdateFrom",
                        [&](Mlp* net) { net->PolyakUpdateFrom(other, 0.5f); });
  ExpectInferFreshAfter("AdamStep", [&](Mlp* net) {
    Adam opt(net->parameter_count(), 0.01f);
    net->ZeroGrad();
    const std::vector<float> x = RandomInputs(4 * 40, 55);
    net->ForwardBatch(x, 4);
    const std::vector<float> dy = {1.0f, -1.0f, 0.5f, -0.5f};
    net->BackwardBatch(dy, 4, /*need_input_grad=*/false);
    net->AdamStep(&opt);
  });
  ExpectInferFreshAfter("Load", [&](Mlp* net) {
    std::stringstream stream;
    BinaryWriter writer(&stream);
    other.Save(&writer);
    BinaryReader reader(&stream);
    *net = Mlp::Load(&reader);
  });
  ExpectInferFreshAfter("copy construction", [&](Mlp* net) {
    Mlp warm(other);
    warm.Infer(std::vector<float>(40, 0.5f));  // a copy made with a built cache
    Mlp copy(warm);
    *net = copy;
  });
  ExpectInferFreshAfter("copy of a stale net", [&](Mlp* net) {
    Mlp changed(*net);
    changed.CopyParamsFrom(other);  // stale, never run since the change
    *net = Mlp(changed);
  });
}

TEST(MlpTest, GradsOfUntrainedNetAreZeros) {
  Rng rng(56);
  Mlp net(kActorDims, OutputActivation::kTanh, &rng);
  net.Infer(std::vector<float>(40, 0.25f));
  const auto grads = net.grads();
  ASSERT_EQ(grads.size(), net.parameter_count());
  for (const float g : grads) {
    EXPECT_EQ(g, 0.0f);
  }
}

TEST(MlpTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/astraea_mlp_test.ckpt";
  Rng rng(8);
  Mlp net({4, 8, 2}, OutputActivation::kTanh, &rng);
  const std::vector<float> x = {0.1f, 0.2f, 0.3f, 0.4f};
  const auto before = net.Infer(x);
  {
    BinaryWriter w(path);
    net.Save(&w);
  }
  BinaryReader r(path);
  Mlp loaded = Mlp::Load(&r);
  EXPECT_EQ(loaded.dims(), net.dims());
  EXPECT_EQ(loaded.Infer(x), before);
  std::filesystem::remove(path);
}

TEST(MlpTest, LoadRejectsCorruptMagic) {
  const std::string path = "/tmp/astraea_mlp_corrupt.ckpt";
  {
    BinaryWriter w(path);
    w.WriteU32(0x12345678);
    w.WriteU32(1);
  }
  BinaryReader r(path);
  EXPECT_THROW(Mlp::Load(&r), SerializationError);
  std::filesystem::remove(path);
}

TEST(AdamTest, StepsTowardMinimum) {
  // Minimize f(p) = (p - 3)^2 from p = 0.
  std::vector<float> p = {0.0f};
  Adam opt(1, 0.1f);
  for (int i = 0; i < 500; ++i) {
    const std::vector<float> g = {2.0f * (p[0] - 3.0f)};
    opt.Step(p, g);
  }
  EXPECT_NEAR(p[0], 3.0f, 0.05f);
}

}  // namespace
}  // namespace astraea
