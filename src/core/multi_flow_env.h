// The multi-flow training environment (paper §3.2): Flow Generator + Runtime
// + Controller (Observer/Enforcer) wired to the RL agents.
//
// Each Astraea flow is an AstraeaController whose ActionHook routes decisions
// through this environment: the proposed action gets exploration noise, the
// Observer assembles the Table-2 global state from every active flow's latest
// MTP report, the reward block scores the elapsed interval for the whole
// link, and the (g, s, a, r, g', s') transition is staged for the shared
// replay buffer. Every flow acts through the same policy (centralized
// training, decentralized execution).
//
// The vectorized trainer (src/train) drives it one segment at a time:
// N environments advance one model-update interval each
// (AdvanceOneInterval) on the thread pool, a barrier drains their staged
// transitions in deterministic order, the learner updates, and the next
// round begins with fresh actor snapshots. Evaluation does not use this
// environment: it scores a plain scenario (src/train/scoring.h).

#ifndef SRC_CORE_MULTI_FLOW_ENV_H_
#define SRC_CORE_MULTI_FLOW_ENV_H_

#include <memory>
#include <vector>

#include "src/core/astraea_controller.h"
#include "src/core/reward.h"
#include "src/core/training_config.h"
#include "src/eval/scenario.h"
#include "src/nn/mlp.h"
#include "src/rl/replay_buffer.h"
#include "src/sim/network.h"
#include "src/sim/queue_disc.h"
#include "src/sim/rate_provider.h"
#include "src/util/rng.h"

namespace astraea {

struct FlowSchedule {
  TimeNs start = 0;
  TimeNs duration = -1;
  TimeNs extra_one_way_delay = 0;
};

struct EnvEpisodeConfig {
  RateBps bandwidth = Mbps(100);
  TimeNs base_rtt = Milliseconds(30);
  double buffer_bdp = 1.0;
  // Domain-randomization extensions (src/train/domain_sampler.*). Defaults
  // reproduce the original Table-3-only environment byte for byte.
  double random_loss = 0.0;             // iid wire loss on the bottleneck
  QueueFactory queue_factory;           // AQM override (default DropTail)
  std::shared_ptr<RateProvider> trace;  // drives the rate; bandwidth still sizes the buffer
  std::vector<FlowSchedule> flows;
  TimeNs episode_length = Seconds(30.0);
  uint64_t seed = 1;
};

// Samples one training episode from the Table-3 ranges: uniform bandwidth /
// RTT / buffer, 2-5 flows with heterogeneous extra delays and Poisson-spread
// start times (§3.2's arrival randomization).
EnvEpisodeConfig SampleEpisode(const TrainingEnvRanges& ranges, Rng* rng);

// Per-episode means of the total reward and each Eq. 4-8 component, averaged
// over completed transitions.
struct EpisodeStats {
  double mean_reward = 0.0;
  double mean_r_fair = 0.0;
  double mean_r_thr = 0.0;
  double mean_r_lat = 0.0;
  double mean_r_loss = 0.0;
  double mean_r_stab = 0.0;
  int decisions = 0;
};

class MultiFlowEnv {
 public:
  // Decisions come from `policy` (typically an adapter over a per-actor
  // snapshot of the shared network); completed transitions are appended to
  // `out`. `noise_std` is the exploration noise added to each proposed
  // action, drawn directly from `rng` — NOT forked — so the caller's
  // per-actor stream persists across episodes and can be checkpointed.
  // `out` and `rng` must outlive the environment.
  MultiFlowEnv(EnvEpisodeConfig config, const AstraeaHyperparameters& hp,
               std::shared_ptr<const Policy> policy, std::vector<Transition>* out,
               double noise_std, Rng* rng);

  // Segment API: advances the simulation by one model-update interval and
  // returns true, or returns false once the episode horizon is reached.
  bool AdvanceOneInterval();
  bool done() const { return next_update_ > config_.episode_length; }
  // Runs any residual tail past the last whole interval and returns the
  // episode means. Call exactly once, after AdvanceOneInterval() returns
  // false.
  EpisodeStats Finish();

  Network& network() { return scenario_->network(); }
  const EnvEpisodeConfig& config() const { return config_; }

 private:
  struct PendingDecision {
    bool valid = false;
    std::vector<float> global_state;
    std::vector<float> local_state;
    float action = 0.0f;
  };

  double OnDecision(int flow_id, const StateView& view, double proposed);
  std::vector<float> ObserveGlobalState() const;
  RewardBreakdown ComputeGlobalReward() const;

  EnvEpisodeConfig config_;
  AstraeaHyperparameters hp_;
  std::vector<Transition>* out_;
  double noise_std_;
  Rng* rng_;  // the stream exploration noise is drawn from

  std::unique_ptr<DumbbellScenario> scenario_;
  std::vector<AstraeaController*> controllers_;  // index = flow id
  std::vector<PendingDecision> pending_;
  LinkInfo link_info_;
  EpisodeStats stats_;
  TimeNs next_update_ = 0;
  bool finished_ = false;
};

// Policy adapter over a caller-owned actor snapshot (vectorized training:
// each actor slot copies the shared parameters at the start of a round, so
// parallel environments never touch the live training networks and every
// decision within a round uses the same weights regardless of worker count).
class SnapshotActorPolicy : public Policy {
 public:
  explicit SnapshotActorPolicy(const Mlp* actor) : actor_(actor) {}
  double Act(const StateView& view) const override {
    return actor_->Infer(view.state_vector)[0];
  }
  std::string name() const override { return "astraea-train-snapshot"; }

 private:
  const Mlp* actor_;
};

}  // namespace astraea

#endif  // SRC_CORE_MULTI_FLOW_ENV_H_
