#include "src/rl/td3.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace astraea {

namespace {

// TD3's fixed settings (Fujimoto et al.).
constexpr float kTau = 0.01f;            // Polyak factor of the target networks
constexpr int64_t kPolicyDelay = 2;      // critic updates per actor update
constexpr float kTargetNoiseStd = 0.1f;  // target policy smoothing
constexpr float kTargetNoiseClip = 0.3f;
constexpr float kGradClipNorm = 5.0f;    // global-norm gradient clipping

// Scales `grads` in place so its global L2 norm is at most `max_norm`
// (after dividing by `scale`, the batch size). Returns the pre-clip norm.
double ClipGradNorm(std::span<float> grads, float max_norm, float scale) {
  double sq = 0.0;
  for (float g : grads) {
    const double v = g / scale;
    sq += v * v;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const float factor = static_cast<float>(max_norm / norm);
    for (float& g : grads) {
      g *= factor;
    }
  }
  return norm;
}

std::vector<int> WithEndpoints(int in, const std::vector<int>& hidden, int out) {
  std::vector<int> dims;
  dims.push_back(in);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  return dims;
}

}  // namespace

Td3Trainer::Td3Trainer(Td3Config config, Rng* rng) : config_(config) {
  ASTRAEA_CHECK(config_.local_state_dim > 0);
  ASTRAEA_CHECK(config_.global_state_dim >= 0);
  ASTRAEA_CHECK(config_.action_dim > 0);

  const auto actor_dims =
      WithEndpoints(config_.local_state_dim, config_.hidden, config_.action_dim);
  const int critic_in = config_.global_state_dim + config_.local_state_dim + config_.action_dim;
  const auto critic_dims = WithEndpoints(critic_in, config_.hidden, 1);

  actor_ = std::make_unique<Mlp>(actor_dims, OutputActivation::kTanh, rng);
  critic1_ = std::make_unique<Mlp>(critic_dims, OutputActivation::kIdentity, rng);
  critic2_ = std::make_unique<Mlp>(critic_dims, OutputActivation::kIdentity, rng);
  target_actor_ = std::make_unique<Mlp>(actor_dims, OutputActivation::kTanh, rng);
  target_critic1_ = std::make_unique<Mlp>(critic_dims, OutputActivation::kIdentity, rng);
  target_critic2_ = std::make_unique<Mlp>(critic_dims, OutputActivation::kIdentity, rng);
  target_actor_->CopyParamsFrom(*actor_);
  target_critic1_->CopyParamsFrom(*critic1_);
  target_critic2_->CopyParamsFrom(*critic2_);

  actor_opt_ = std::make_unique<Adam>(actor_->parameter_count(), config_.learning_rate);
  critic1_opt_ = std::make_unique<Adam>(critic1_->parameter_count(), config_.learning_rate);
  critic2_opt_ = std::make_unique<Adam>(critic2_->parameter_count(), config_.learning_rate);
}

std::vector<float> Td3Trainer::CriticInput(const std::vector<float>& g,
                                           const std::vector<float>& s,
                                           std::span<const float> a) const {
  std::vector<float> in;
  in.reserve(g.size() + s.size() + a.size());
  in.insert(in.end(), g.begin(), g.end());
  in.insert(in.end(), s.begin(), s.end());
  in.insert(in.end(), a.begin(), a.end());
  ASTRAEA_CHECK(static_cast<int>(in.size()) ==
                config_.global_state_dim + config_.local_state_dim + config_.action_dim);
  return in;
}

Td3Diagnostics Td3Trainer::Update(const ReplaySource& buffer, Rng* rng) {
  Td3Diagnostics diag;
  if (buffer.size() < config_.batch_size) {
    return diag;
  }
  const std::vector<size_t> batch = buffer.SampleIndices(config_.batch_size, rng);
  const size_t B = config_.batch_size;
  const size_t sdim = static_cast<size_t>(config_.local_state_dim);
  const size_t gdim = static_cast<size_t>(config_.global_state_dim);
  const size_t adim = static_cast<size_t>(config_.action_dim);
  const size_t cdim = gdim + sdim + adim;

  // ---- Gather the batch into flat row-major buffers.
  scratch_.local.resize(B * sdim);
  scratch_.next_local.resize(B * sdim);
  scratch_.next_in.resize(B * cdim);
  scratch_.in.resize(B * cdim);
  scratch_.actor_in.resize(B * cdim);
  scratch_.y.resize(B);
  scratch_.dq.resize(B);
  for (size_t r = 0; r < B; ++r) {
    const Transition& t = buffer.at(batch[r]);
    ASTRAEA_CHECK(t.local_state.size() == sdim && t.next_local_state.size() == sdim);
    ASTRAEA_CHECK(t.global_state.size() == gdim && t.next_global_state.size() == gdim);
    ASTRAEA_CHECK(t.action.size() == adim);
    std::copy(t.local_state.begin(), t.local_state.end(), scratch_.local.begin() + r * sdim);
    std::copy(t.next_local_state.begin(), t.next_local_state.end(),
              scratch_.next_local.begin() + r * sdim);
    float* in = scratch_.in.data() + r * cdim;
    std::copy(t.global_state.begin(), t.global_state.end(), in);
    std::copy(t.local_state.begin(), t.local_state.end(), in + gdim);
    std::copy(t.action.begin(), t.action.end(), in + gdim + sdim);
    float* nin = scratch_.next_in.data() + r * cdim;
    std::copy(t.next_global_state.begin(), t.next_global_state.end(), nin);
    std::copy(t.next_local_state.begin(), t.next_local_state.end(), nin + gdim);
    // Actor-probe inputs share the (g, s) prefix; the action slot is filled
    // after the actor's batched forward below.
    float* ain = scratch_.actor_in.data() + r * cdim;
    std::copy(t.global_state.begin(), t.global_state.end(), ain);
    std::copy(t.local_state.begin(), t.local_state.end(), ain + gdim);
  }

  // ---- TD targets: y = r + gamma * (1 - done) * min(Q1', Q2')(g', s', a~).
  const auto next_action = target_actor_->InferBatchSpan(scratch_.next_local, B);
  scratch_.next_action.assign(next_action.begin(), next_action.end());
  for (size_t r = 0; r < B; ++r) {
    float* a = scratch_.next_action.data() + r * adim;
    for (size_t k = 0; k < adim; ++k) {
      const float noise =
          std::clamp(static_cast<float>(rng->Normal(0.0, kTargetNoiseStd)),
                     -kTargetNoiseClip, kTargetNoiseClip);
      a[k] = std::clamp(a[k] + noise, -1.0f, 1.0f);
    }
    std::copy(a, a + adim, scratch_.next_in.data() + r * cdim + gdim + sdim);
  }
  // The two target-critic passes ping-pong over the same scratch, so copy the
  // first result out before running the second.
  const auto q1_next_view = target_critic1_->InferBatchSpan(scratch_.next_in, B);
  scratch_.dq.assign(q1_next_view.begin(), q1_next_view.end());  // borrow as q1' store
  const auto q2_next = target_critic2_->InferBatchSpan(scratch_.next_in, B);
  for (size_t r = 0; r < B; ++r) {
    const Transition& t = buffer.at(batch[r]);
    scratch_.y[r] =
        t.reward +
        (t.terminal ? 0.0f : config_.gamma * std::min(scratch_.dq[r], q2_next[r]));
  }

  // ---- Critic fit.
  critic1_->ZeroGrad();
  critic2_->ZeroGrad();
  const auto q1 = critic1_->ForwardBatch(scratch_.in, B);
  for (size_t r = 0; r < B; ++r) {
    scratch_.dq[r] = 2.0f * (q1[r] - scratch_.y[r]);
  }
  double loss1_acc = 0.0;
  for (size_t r = 0; r < B; ++r) {
    loss1_acc += 0.5 * (q1[r] - scratch_.y[r]) * (q1[r] - scratch_.y[r]);
  }
  critic1_->BackwardBatch(scratch_.dq, B, /*need_input_grad=*/false);
  const auto q2 = critic2_->ForwardBatch(scratch_.in, B);
  double loss2_acc = 0.0;
  for (size_t r = 0; r < B; ++r) {
    loss2_acc += 0.5 * (q2[r] - scratch_.y[r]) * (q2[r] - scratch_.y[r]);
    scratch_.dq[r] = 2.0f * (q2[r] - scratch_.y[r]);
  }
  critic2_->BackwardBatch(scratch_.dq, B, /*need_input_grad=*/false);
  const float batch_scale = static_cast<float>(B);
  const double c1_norm = ClipGradNorm(critic1_->grads(), kGradClipNorm, batch_scale);
  const double c2_norm = ClipGradNorm(critic2_->grads(), kGradClipNorm, batch_scale);
  critic1_->AdamStep(critic1_opt_.get(), batch_scale);
  critic2_->AdamStep(critic2_opt_.get(), batch_scale);
  diag.critic_loss = (loss1_acc + loss2_acc) / static_cast<double>(B);
  diag.critic_grad_norm = 0.5 * (c1_norm + c2_norm);

  ++update_count_;
  diag.updates = update_count_;

  // ---- Delayed actor update + target sync (TD3).
  if (update_count_ % kPolicyDelay == 0) {
    actor_->ZeroGrad();
    const auto actions = actor_->ForwardBatch(scratch_.local, B);
    for (size_t r = 0; r < B; ++r) {
      std::copy(actions.begin() + r * adim, actions.begin() + (r + 1) * adim,
                scratch_.actor_in.begin() + r * cdim + gdim + sdim);
    }
    const auto q = critic1_->ForwardBatch(scratch_.actor_in, B);
    double q_acc = 0.0;
    for (size_t r = 0; r < B; ++r) {
      q_acc += q[r];
      scratch_.dq[r] = 1.0f;
    }
    // dQ/d(input) of the critic; the action slice drives the actor update.
    // We maximize Q, so the actor receives -dQ/da as its loss gradient.
    critic1_->ZeroGrad();  // this probe's critic grads are discarded
    const auto dq_din = critic1_->BackwardBatch(scratch_.dq, B);
    scratch_.next_action.resize(B * adim);  // reuse as the -dQ/da buffer
    for (size_t r = 0; r < B; ++r) {
      const float* da = dq_din.data() + r * cdim + gdim + sdim;
      for (size_t k = 0; k < adim; ++k) {
        scratch_.next_action[r * adim + k] = -da[k];
      }
    }
    actor_->BackwardBatch(scratch_.next_action, B, /*need_input_grad=*/false);
    diag.actor_grad_norm = ClipGradNorm(actor_->grads(), kGradClipNorm, batch_scale);
    actor_->AdamStep(actor_opt_.get(), batch_scale);
    diag.actor_objective = q_acc / static_cast<double>(B);

    target_actor_->PolyakUpdateFrom(*actor_, kTau);
    target_critic1_->PolyakUpdateFrom(*critic1_, kTau);
    target_critic2_->PolyakUpdateFrom(*critic2_, kTau);
  }
  return diag;
}

Td3Diagnostics Td3Trainer::UpdateReference(const ReplaySource& buffer, Rng* rng) {
  Td3Diagnostics diag;
  if (buffer.size() < config_.batch_size) {
    return diag;
  }
  const std::vector<size_t> batch = buffer.SampleIndices(config_.batch_size, rng);

  // ---- Critic update: y = r + gamma * (1 - done) * min(Q1', Q2')(g', s', a~).
  critic1_->ZeroGrad();
  critic2_->ZeroGrad();
  double loss_acc = 0.0;
  for (size_t idx : batch) {
    const Transition& t = buffer.at(idx);

    std::vector<float> next_action = target_actor_->Infer(t.next_local_state);
    for (float& a : next_action) {
      const float noise =
          std::clamp(static_cast<float>(rng->Normal(0.0, kTargetNoiseStd)),
                     -kTargetNoiseClip, kTargetNoiseClip);
      a = std::clamp(a + noise, -1.0f, 1.0f);
    }
    const std::vector<float> next_in =
        CriticInput(t.next_global_state, t.next_local_state, next_action);
    const float q1_next = target_critic1_->Infer(next_in)[0];
    const float q2_next = target_critic2_->Infer(next_in)[0];
    const float y =
        t.reward + (t.terminal ? 0.0f : config_.gamma * std::min(q1_next, q2_next));

    const std::vector<float> in = CriticInput(t.global_state, t.local_state, t.action);
    const float q1 = critic1_->Forward(in)[0];
    {
      const float dq1[1] = {2.0f * (q1 - y)};
      critic1_->Backward(dq1);
    }
    const float q2 = critic2_->Forward(in)[0];
    {
      const float dq2[1] = {2.0f * (q2 - y)};
      critic2_->Backward(dq2);
    }
    loss_acc += 0.5 * ((q1 - y) * (q1 - y) + (q2 - y) * (q2 - y));
  }
  const float batch_scale = static_cast<float>(config_.batch_size);
  const double c1_norm = ClipGradNorm(critic1_->grads(), kGradClipNorm, batch_scale);
  const double c2_norm = ClipGradNorm(critic2_->grads(), kGradClipNorm, batch_scale);
  critic1_->AdamStep(critic1_opt_.get(), batch_scale);
  critic2_->AdamStep(critic2_opt_.get(), batch_scale);
  diag.critic_loss = loss_acc / config_.batch_size;
  diag.critic_grad_norm = 0.5 * (c1_norm + c2_norm);

  ++update_count_;
  diag.updates = update_count_;

  // ---- Delayed actor update + target sync (TD3).
  if (update_count_ % kPolicyDelay == 0) {
    actor_->ZeroGrad();
    double q_acc = 0.0;
    for (size_t idx : batch) {
      const Transition& t = buffer.at(idx);
      const std::vector<float> action = actor_->Forward(t.local_state);
      const std::vector<float> in = CriticInput(t.global_state, t.local_state, action);
      const float q = critic1_->Forward(in)[0];
      q_acc += q;

      // dQ/d(input) of the critic; the action slice drives the actor update.
      // We maximize Q, so the actor receives -dQ/da as its loss gradient.
      critic1_->ZeroGrad();  // discard critic grads from this probe
      const float dq[1] = {1.0f};
      const std::vector<float> dq_din = critic1_->Backward(dq);
      std::vector<float> dq_da(
          dq_din.begin() + config_.global_state_dim + config_.local_state_dim, dq_din.end());
      ASTRAEA_CHECK(static_cast<int>(dq_da.size()) == config_.action_dim);
      for (float& g : dq_da) {
        g = -g;
      }
      actor_->Backward(dq_da);
    }
    diag.actor_grad_norm = ClipGradNorm(actor_->grads(), kGradClipNorm, batch_scale);
    actor_->AdamStep(actor_opt_.get(), batch_scale);
    diag.actor_objective = q_acc / config_.batch_size;

    target_actor_->PolyakUpdateFrom(*actor_, kTau);
    target_critic1_->PolyakUpdateFrom(*critic1_, kTau);
    target_critic2_->PolyakUpdateFrom(*critic2_, kTau);
  }
  return diag;
}

void Td3Trainer::SaveActor(const std::string& path) const {
  BinaryWriter writer(path);
  actor_->Save(&writer);
  // Write* throws as soon as the stream goes bad, but buffered bytes can
  // still fail at the final flush (disk full) — surface that too instead of
  // leaving a silently truncated checkpoint behind.
  writer.Flush();
  if (!writer.ok()) {
    throw SerializationError("actor checkpoint left in bad state: " + path);
  }
}

namespace {

constexpr uint32_t kTd3StateMagic = 0x41'53'54'44;  // "ASTD"
constexpr uint32_t kTd3StateVersion = 1;

// Loads one network section and copies it into `dst`, enforcing shape match.
void LoadInto(BinaryReader* reader, Mlp* dst, const char* which) {
  Mlp loaded = Mlp::Load(reader);
  if (loaded.dims() != dst->dims()) {
    throw SerializationError(std::string("TD3 checkpoint shape mismatch for ") + which);
  }
  dst->CopyParamsFrom(loaded);
}

}  // namespace

void Td3Trainer::SaveState(BinaryWriter* writer) const {
  writer->WriteU32(kTd3StateMagic);
  writer->WriteU32(kTd3StateVersion);
  actor_->Save(writer);
  critic1_->Save(writer);
  critic2_->Save(writer);
  target_actor_->Save(writer);
  target_critic1_->Save(writer);
  target_critic2_->Save(writer);
  actor_opt_->SaveState(writer);
  critic1_opt_->SaveState(writer);
  critic2_opt_->SaveState(writer);
  writer->WriteU64(static_cast<uint64_t>(update_count_));
}

void Td3Trainer::LoadState(BinaryReader* reader) {
  if (reader->ReadU32() != kTd3StateMagic) {
    throw SerializationError("bad TD3 training-state magic");
  }
  if (reader->ReadU32() != kTd3StateVersion) {
    throw SerializationError("unsupported TD3 training-state version");
  }
  LoadInto(reader, actor_.get(), "actor");
  LoadInto(reader, critic1_.get(), "critic1");
  LoadInto(reader, critic2_.get(), "critic2");
  LoadInto(reader, target_actor_.get(), "target actor");
  LoadInto(reader, target_critic1_.get(), "target critic1");
  LoadInto(reader, target_critic2_.get(), "target critic2");
  actor_opt_->LoadState(reader);
  critic1_opt_->LoadState(reader);
  critic2_opt_->LoadState(reader);
  update_count_ = static_cast<int64_t>(reader->ReadU64());
}

}  // namespace astraea
