// TD3-style actor–critic trainer, the learning core of Astraea's
// VectorizedTrainer (src/train/vectorized_trainer.h).
//
// This implements Algorithm 1 of the paper plus the Appendix-A optimizations
// borrowed from TD3 (Fujimoto et al.): target networks with Polyak averaging,
// clipped double-Q learning, delayed policy updates and target-policy
// smoothing. The multi-agent (MADDPG-style) aspect is in the inputs, not the
// update rule: the critic consumes the *global* state g aggregated over all
// active flows while the actor sees only the flow-local state s, and all flow
// agents share one set of parameters and one replay buffer.

#ifndef SRC_RL_TD3_H_
#define SRC_RL_TD3_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/nn/mlp.h"
#include "src/rl/replay_buffer.h"
#include "src/util/rng.h"

namespace astraea {

struct Td3Config {
  int local_state_dim = 0;
  int global_state_dim = 0;
  int action_dim = 1;
  std::vector<int> hidden = {256, 128, 64};  // paper §4
  float learning_rate = 1e-3f;               // Table 4 (α), actor and critics
  float gamma = 0.98f;                       // Table 4 (γ)
  size_t batch_size = 192;                   // Table 4
};

struct Td3Diagnostics {
  double critic_loss = 0.0;
  double actor_objective = 0.0;  // mean Q under the current policy
  // Pre-clip global L2 gradient norms (per-sample scale). critic_grad_norm is
  // the mean of the two critics'; actor_grad_norm stays 0 on non-delayed steps.
  double critic_grad_norm = 0.0;
  double actor_grad_norm = 0.0;
  int64_t updates = 0;
};

class Td3Trainer {
 public:
  Td3Trainer(Td3Config config, Rng* rng);

  // One gradient update (Algorithm 1, lines 3-6). No-op when the buffer has
  // fewer than batch_size transitions. Runs on the flat batched kernels
  // (Mlp::ForwardBatch / BackwardBatch); draws from `rng` in the same order as
  // UpdateReference so both paths consume identical random streams.
  Td3Diagnostics Update(const ReplaySource& buffer, Rng* rng);

  // Per-sample reference implementation of the same update, kept for parity
  // testing the batched path (and as executable documentation of Algorithm 1).
  Td3Diagnostics UpdateReference(const ReplaySource& buffer, Rng* rng);

  const Mlp& actor() const { return *actor_; }
  Mlp& mutable_actor() { return *actor_; }
  const Mlp& critic1() const { return *critic1_; }

  // Deployment/policy artifact: actor weights only, one Mlp::Save stream,
  // read back by LoadActorFile (src/nn/mlp.h). Throws SerializationError if
  // the write cannot be completed (disk full, bad path).
  void SaveActor(const std::string& path) const;

  // Full training state — actor, both critics, all three target networks,
  // all three Adam optimizers and the update counter — for crash-safe
  // resume. Streams (not files) so VectorizedTrainer can embed this in its
  // own checkpoint payload. LoadState validates network shapes against this
  // instance and throws SerializationError on any mismatch.
  void SaveState(BinaryWriter* writer) const;
  void LoadState(BinaryReader* reader);

  int64_t update_count() const { return update_count_; }

 private:
  std::vector<float> CriticInput(const std::vector<float>& g, const std::vector<float>& s,
                                 std::span<const float> a) const;

  Td3Config config_;
  std::unique_ptr<Mlp> actor_;
  std::unique_ptr<Mlp> critic1_;
  std::unique_ptr<Mlp> critic2_;
  std::unique_ptr<Mlp> target_actor_;
  std::unique_ptr<Mlp> target_critic1_;
  std::unique_ptr<Mlp> target_critic2_;
  std::unique_ptr<Adam> actor_opt_;
  std::unique_ptr<Adam> critic1_opt_;
  std::unique_ptr<Adam> critic2_opt_;
  int64_t update_count_ = 0;

  // Grow-only gather buffers reused across Update() calls so the steady-state
  // training loop performs no heap allocation.
  struct Scratch {
    std::vector<float> local;        // [B x s]
    std::vector<float> next_local;   // [B x s]
    std::vector<float> next_action;  // [B x a]
    std::vector<float> next_in;      // [B x (g+s+a)]
    std::vector<float> in;           // [B x (g+s+a)] — critic fit inputs
    std::vector<float> actor_in;     // [B x (g+s+a)] — actor-probe inputs
    std::vector<float> y;            // [B] TD targets
    std::vector<float> dq;           // [B] critic output grads
  };
  Scratch scratch_;
};

}  // namespace astraea

#endif  // SRC_RL_TD3_H_
