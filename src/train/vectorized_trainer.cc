#include "src/train/vectorized_trainer.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "src/train/scoring.h"
#include "src/util/checkpoint.h"
#include "src/util/failpoint.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace astraea {

namespace {

constexpr uint32_t kVectorizedStateMagic = 0x41'53'54'56;  // "ASTV"
constexpr uint32_t kVectorizedStateVersion = 1;

// Exploration noise std: decays linearly from the first to the last value
// over the decay horizon.
constexpr double kExplorationNoise = 0.15;
constexpr double kExplorationNoiseFinal = 0.03;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

VectorizedTrainer::Metrics VectorizedTrainer::RegisterMetrics(size_t shards) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Metrics m{reg.GetCounter("train.episodes_total"),
            reg.GetCounter("train.rounds_total"),
            reg.GetCounter("train.env_steps_total"),
            reg.GetCounter("train.actor_steps_total"),
            reg.GetCounter("train.interleave_stalls_total"),
            reg.GetGauge("train.replay_size"),
            reg.GetGauge("train.exploration_noise"),
            reg.GetHistogram("train.round_seconds"),
            reg.GetHistogram("train.update_seconds"),
            reg.GetHistogram("train.episode_reward"),
            reg.GetHistogram("train.critic_loss"),
            reg.GetHistogram("train.critic_grad_norm"),
            reg.GetHistogram("train.actor_grad_norm"),
            {}};
  for (size_t s = 0; s < shards; ++s) {
    m.shard_occupancy.push_back(
        &reg.GetGauge("train.replay_shard_occupancy." + std::to_string(s)));
  }
  return m;
}

VectorizedTrainer::VectorizedTrainer(VectorizedTrainerConfig config)
    : config_(config),
      sampler_([&config] {
        DomainRanges r = config.domain;
        r.episode_length = config.episode_length;
        return r;
      }()),
      learner_rng_(config.seed),
      metrics_(RegisterMetrics(config.replay_shards)) {
  ASTRAEA_CHECK(config_.num_envs >= 1);
  Td3Config td3;
  td3.local_state_dim = LocalStateDim(config_.hp);
  td3.global_state_dim = kGlobalFeatures;
  td3.action_dim = 1;
  td3.learning_rate = static_cast<float>(config_.hp.learning_rate);
  td3.gamma = static_cast<float>(config_.hp.gamma);
  td3.batch_size = static_cast<size_t>(config_.hp.batch_size);
  trainer_ = std::make_unique<Td3Trainer>(td3, &learner_rng_);
  replay_ = std::make_unique<ShardedReplayBuffer>(config_.replay_capacity, config_.replay_shards);

  // Actor i's stream is a pure function of (seed, i) — never of worker count
  // or spawn order — which is what makes episode sampling and exploration
  // noise schedule-independent.
  const uint64_t actor_base = Rng::DeriveSeed(kTrainActorSeedStream, config_.seed);
  slots_.reserve(static_cast<size_t>(config_.num_envs));
  staged_.resize(static_cast<size_t>(config_.num_envs));
  for (int i = 0; i < config_.num_envs; ++i) {
    slots_.emplace_back(Rng::DeriveSeed(actor_base, static_cast<uint64_t>(i)));
    ActorSlot& slot = slots_.back();
    slot.actor = std::make_unique<Mlp>(trainer_->actor());
    slot.policy = std::make_shared<SnapshotActorPolicy>(slot.actor.get());
  }
}

double VectorizedTrainer::NoiseForEpisode(int global_episode) const {
  const double frac =
      decay_horizon_ > 1
          ? std::min(1.0, static_cast<double>(global_episode) / (decay_horizon_ - 1))
          : 1.0;
  return kExplorationNoise + frac * (kExplorationNoiseFinal - kExplorationNoise);
}

void VectorizedTrainer::Train(
    int episodes, const std::function<void(const EpisodeDiagnostics&)>& on_episode) {
  if (decay_horizon_ == 0) {
    decay_horizon_ =
        config_.exploration_decay_episodes > 0 ? config_.exploration_decay_episodes : episodes;
  }
  for (int e = 0; e < episodes; ++e) {
    ASTRAEA_FAILPOINT("train.episode");
    const double noise = NoiseForEpisode(episodes_done_);
    metrics_.exploration_noise.Set(noise);

    // Every actor samples its next episode from its own stream and starts a
    // fresh environment acting through its snapshot policy.
    for (size_t i = 0; i < slots_.size(); ++i) {
      ActorSlot& slot = slots_[i];
      const EnvEpisodeConfig env_config = sampler_.Sample(&slot.rng);
      slot.env = std::make_unique<MultiFlowEnv>(env_config, config_.hp, slot.policy,
                                                &staged_[i], noise, &slot.rng);
      ++slot.episodes_started;
    }

    // Round loop: snapshot weights, advance all actors one model-update
    // interval in parallel, barrier, deal staged transitions in deterministic
    // interleave order, then the learner's gradient steps. Episodes share one
    // length, so every actor finishes after the same number of rounds.
    Td3Diagnostics last_td3;
    for (;;) {
      const auto round_start = std::chrono::steady_clock::now();
      for (ActorSlot& slot : slots_) {
        slot.actor->CopyParamsFrom(trainer_->actor());
      }
      const std::vector<int> advanced = ParallelMap(
          slots_.size(),
          [this](size_t i) -> int { return slots_[i].env->AdvanceOneInterval() ? 1 : 0; },
          config_.workers);
      if (advanced[0] == 0) {
        break;  // lockstep: all actors reach the horizon together
      }
      metrics_.rounds.Increment();
      metrics_.env_steps.Increment(slots_.size());
      DrainStaged();
      metrics_.round_seconds.Observe(SecondsSince(round_start));

      const auto update_start = std::chrono::steady_clock::now();
      for (int step = 0; step < config_.hp.model_update_steps; ++step) {
        last_td3 = trainer_->Update(*replay_, &learner_rng_);
      }
      metrics_.update_seconds.Observe(SecondsSince(update_start));
    }

    // Finish the residual tail (serial, actor order) and fold the per-actor
    // means into one diagnostic row. Tail decisions are drained too, so the
    // staging queues are provably empty at every checkpoint boundary.
    EpisodeStats total;
    for (ActorSlot& slot : slots_) {
      const EpisodeStats s = slot.env->Finish();
      slot.env.reset();
      total.mean_reward += s.mean_reward;
      total.mean_r_fair += s.mean_r_fair;
      total.mean_r_thr += s.mean_r_thr;
      total.mean_r_lat += s.mean_r_lat;
      total.mean_r_loss += s.mean_r_loss;
      total.mean_r_stab += s.mean_r_stab;
      total.decisions += s.decisions;
    }
    const double inv = 1.0 / static_cast<double>(slots_.size());
    total.mean_reward *= inv;
    total.mean_r_fair *= inv;
    total.mean_r_thr *= inv;
    total.mean_r_lat *= inv;
    total.mean_r_loss *= inv;
    total.mean_r_stab *= inv;
    DrainStaged();

    ++episodes_done_;
    metrics_.episodes.Increment();
    metrics_.replay_size.Set(static_cast<double>(replay_->size()));
    for (size_t s = 0; s < replay_->shard_count(); ++s) {
      metrics_.shard_occupancy[s]->Set(static_cast<double>(replay_->shard_size(s)));
    }
    metrics_.episode_reward.Observe(total.mean_reward);
    metrics_.critic_loss.Observe(last_td3.critic_loss);
    metrics_.critic_grad_norm.Observe(last_td3.critic_grad_norm);
    if (last_td3.actor_grad_norm > 0.0) {
      metrics_.actor_grad_norm.Observe(last_td3.actor_grad_norm);
    }

    EpisodeDiagnostics diag;
    diag.episode = episodes_done_;
    diag.env = total;
    diag.td3 = last_td3;
    diag.replay_size = replay_->size();
    diag.exploration_noise = noise;
    if (episodes_done_ % 10 == 0) {
      diag.eval_jain = EvaluateFairness();
    }
    if (on_episode) {
      on_episode(diag);
    }
  }
}

void VectorizedTrainer::DrainStaged() {
  uint64_t staged = 0;
  for (const auto& q : staged_) {
    staged += q.size();
  }
  replay_->DrainInterleaved(&staged_);
  total_env_steps_ += staged;
  metrics_.actor_steps.Increment(staged);
  metrics_.interleave_stalls.Increment(replay_->interleave_stalls() - counted_stalls_);
  counted_stalls_ = replay_->interleave_stalls();
}

double VectorizedTrainer::EvaluateFairness() const {
  // A copy of the actor keeps the live network's lazily built inference
  // cache untouched; scoring reads no training stream.
  const Mlp eval_actor(trainer_->actor());
  return ScoreScenario(TrainerEvalScenario(), std::make_shared<SnapshotActorPolicy>(&eval_actor),
                       config_.hp)
      .jain;
}

void VectorizedTrainer::SerializeState(BinaryWriter* w) const {
  for (const auto& q : staged_) {
    ASTRAEA_CHECK(q.empty());  // checkpoints only happen at episode boundaries
  }
  WriteSchemaHeader(w, {kVectorizedStateMagic, kVectorizedStateVersion});
  w->WriteU32(static_cast<uint32_t>(episodes_done_));
  w->WriteU32(static_cast<uint32_t>(decay_horizon_));
  w->WriteU64(total_env_steps_);
  learner_rng_.SaveState(w);
  trainer_->SaveState(w);
  replay_->Save(w);
  w->WriteU64(slots_.size());
  for (const ActorSlot& slot : slots_) {
    slot.rng.SaveState(w);
    w->WriteU64(slot.episodes_started);
  }
}

void VectorizedTrainer::SaveState(const std::string& path) const {
  CheckpointWriter ckpt(path);
  SerializeState(ckpt.payload());
  ckpt.Commit();
}

void VectorizedTrainer::LoadState(const std::string& path) {
  CheckpointReader ckpt(path);
  BinaryReader* r = ckpt.payload();
  ReadSchemaHeader(r, kVectorizedStateMagic, kVectorizedStateVersion, kVectorizedStateVersion,
                   "vectorized training-state (" + path + ")");
  const int episodes_done = static_cast<int>(r->ReadU32());
  const int decay_horizon = static_cast<int>(r->ReadU32());
  const uint64_t total_env_steps = r->ReadU64();
  learner_rng_.LoadState(r);
  trainer_->LoadState(r);
  replay_->Load(r);
  const uint64_t actors = r->ReadU64();
  if (actors != slots_.size()) {
    throw SerializationError("vectorized checkpoint has " + std::to_string(actors) +
                             " actors, this trainer is configured for " +
                             std::to_string(slots_.size()) + ": " + path);
  }
  for (ActorSlot& slot : slots_) {
    slot.rng.LoadState(r);
    slot.episodes_started = r->ReadU64();
  }
  episodes_done_ = episodes_done;
  decay_horizon_ = decay_horizon;
  total_env_steps_ = total_env_steps;
  counted_stalls_ = replay_->interleave_stalls();
}

uint32_t VectorizedTrainer::StateFingerprint() const {
  std::ostringstream buf;
  BinaryWriter w(&buf);
  SerializeState(&w);
  const std::string bytes = buf.str();
  return Crc32(bytes.data(), bytes.size());
}

}  // namespace astraea
