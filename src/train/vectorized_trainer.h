// Vectorized actor/learner training (DESIGN.md §14).
//
// N MultiFlowEnv actors run one model-update segment at a time on the PR-1
// thread pool, each acting through a private snapshot of the shared actor
// and drawing exploration noise from its own persistent splitmix-derived
// stream. At the round barrier their staged transitions are dealt into the
// sharded replay buffer by a deterministic round-robin interleave, then the
// single TD3 learner performs its gradient steps from a central stream.
// Because (a) per-actor randomness is keyed by actor index, not schedule,
// (b) actors act on identical frozen weights within a round, and (c) the
// interleave fixes the global transition order, training is bit-identical
// for any worker count — the same argument PR-1/PR-6 use for the experiment
// harness and sharded scenarios, applied to learning.
//
// Checkpoints (magic "ASTV") carry the learner stream, trainer state,
// sharded buffer with its interleave cursor, and every actor's stream +
// episode cursor, so PR-2's kill-and-resume bit-identity survives
// vectorization.

#ifndef SRC_TRAIN_VECTORIZED_TRAINER_H_
#define SRC_TRAIN_VECTORIZED_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/multi_flow_env.h"
#include "src/rl/td3.h"
#include "src/train/domain_sampler.h"
#include "src/train/sharded_replay.h"
#include "src/util/metrics.h"

namespace astraea {

// Seed stream (Rng::DeriveSeed) for the training subsystem: actor i's
// persistent stream is DeriveSeed(DeriveSeed(kTrainActorSeedStream, seed), i).
inline constexpr uint64_t kTrainActorSeedStream = 0xA57AEA04;

struct VectorizedTrainerConfig {
  AstraeaHyperparameters hp;
  DomainRanges domain;  // DomainRanges::TableThree() or ::Extended()
  size_t replay_capacity = 200'000;
  size_t replay_shards = 8;
  TimeNs episode_length = Seconds(30.0);
  int num_envs = 4;     // parallel actors (paper Appendix A uses 4)
  size_t workers = 1;   // threads; results are identical for any value
  uint64_t seed = 7;
  int exploration_decay_episodes = 0;  // 0: horizon of the first Train() call
};

struct EpisodeDiagnostics {
  int episode = 0;
  EpisodeStats env;
  Td3Diagnostics td3;
  double eval_jain = -1.0;  // filled when an eval ran this episode
  size_t replay_size = 0;   // replay-buffer occupancy after the episode
  double exploration_noise = 0.0;  // noise std used this episode
};

class VectorizedTrainer {
 public:
  explicit VectorizedTrainer(VectorizedTrainerConfig config);

  // Runs `episodes` super-episodes (every actor completes one episode per
  // super-episode); invokes `on_episode` after each with stats averaged
  // across actors.
  void Train(int episodes, const std::function<void(const EpisodeDiagnostics&)>& on_episode);

  // Deterministic evaluation: the `jain` of TrainerEvalScenario()
  // (scoring.h) under a copy of the current actor. It draws from no stream,
  // so diagnostics cadence cannot change training results.
  double EvaluateFairness() const;

  Td3Trainer& trainer() { return *trainer_; }
  const ShardedReplayBuffer& replay() const { return *replay_; }
  const VectorizedTrainerConfig& config() const { return config_; }
  int episodes_done() const { return episodes_done_; }
  uint64_t total_env_steps() const { return total_env_steps_; }

  // Deployment artifact (actor weights, the LoadActorFile format).
  void SaveCheckpoint(const std::string& path) const { trainer_->SaveActor(path); }

  // Full training state in the atomic CRC-footer container. Only legal at a
  // super-episode boundary (no live simulator state exists there).
  void SaveState(const std::string& path) const;
  void LoadState(const std::string& path);

  // CRC-32 of the serialized training state — the bit-identity probe used by
  // the 1-vs-N-worker tests, bench_train_scale and the CI train-scale job.
  uint32_t StateFingerprint() const;

 private:
  struct ActorSlot {
    Rng rng;                      // persistent stream: episode draws + noise
    uint64_t episodes_started = 0;  // the actor's episode cursor
    std::unique_ptr<Mlp> actor;   // per-round snapshot of the shared actor
    std::shared_ptr<const Policy> policy;  // SnapshotActorPolicy over `actor`
    std::unique_ptr<MultiFlowEnv> env;     // live within a super-episode
    explicit ActorSlot(uint64_t seed) : rng(seed) {}
  };

  // Deals every actor's staged transitions into the replay buffer and counts
  // them and the interleave stalls they caused; after a round and after the
  // episode-end tail alike.
  void DrainStaged();
  void SerializeState(BinaryWriter* writer) const;
  double NoiseForEpisode(int global_episode) const;

  VectorizedTrainerConfig config_;
  DomainSampler sampler_;
  Rng learner_rng_;  // weight init + TD3 batch sampling
  std::unique_ptr<Td3Trainer> trainer_;
  std::unique_ptr<ShardedReplayBuffer> replay_;
  std::vector<ActorSlot> slots_;
  std::vector<std::vector<Transition>> staged_;  // index = actor; its env appends here
  int episodes_done_ = 0;
  int decay_horizon_ = 0;
  uint64_t total_env_steps_ = 0;  // lifetime transitions collected
  uint64_t counted_stalls_ = 0;   // stalls already exported to the counter

  // All train.* metrics are registered at construction, so scrapes never
  // race first-use (PR-6/PR-7 convention).
  struct Metrics {
    Counter& episodes;
    Counter& rounds;
    Counter& env_steps;
    Counter& actor_steps;
    Counter& interleave_stalls;
    Gauge& replay_size;
    Gauge& exploration_noise;
    Histogram& round_seconds;
    Histogram& update_seconds;
    // One sample per episode; actor_grad_norm only when the last update
    // stepped the actor (TD3 delays actor updates).
    Histogram& episode_reward;
    Histogram& critic_loss;
    Histogram& critic_grad_norm;
    Histogram& actor_grad_norm;
    std::vector<Gauge*> shard_occupancy;
  };
  static Metrics RegisterMetrics(size_t shards);
  Metrics metrics_;
};

}  // namespace astraea

#endif  // SRC_TRAIN_VECTORIZED_TRAINER_H_
