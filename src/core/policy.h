// Astraea control policies.
//
// `MlpPolicy` executes a trained actor checkpoint (tools/astraea_train).
// `DistilledPolicy` is the closed-form controller distilled from the
// structure the paper reverse-engineers out of the trained model in §5.5 /
// Fig. 17: the action decreases monotonically with observed queueing delay,
// each flow has a rate-dependent equilibrium point, and the differential
// adjustment transfers bandwidth from high-rate to low-rate flows until they
// equalize. Concretely it regulates each flow's own bottleneck backlog toward
// a fixed K packets — since all flows sharing a bottleneck see the same
// queueing delay, backlog_i = rate_i * q_delay, so equal backlogs force equal
// rates (the §5.5 fair consensus) while a positive shared q* keeps the link
// fully utilized. Gain is normalized by cwnd and RTT so the loop is stable
// from kbps to 10 Gbps paths. See DESIGN.md's substitution table for why this
// stands in for the trained network in deterministic benches.

#ifndef SRC_CORE_POLICY_H_
#define SRC_CORE_POLICY_H_

#include <memory>
#include <span>
#include <string>

#include "src/core/state_block.h"
#include "src/core/training_config.h"
#include "src/nn/mlp.h"
#include "src/sim/congestion_controller.h"

namespace astraea {

// Everything a policy may look at when deciding an action. MlpPolicy uses
// only `state_vector` (the deployable path: local state, no global info);
// DistilledPolicy additionally reads the raw report it was derived from.
struct StateView {
  std::span<const float> state_vector;
  const MtpReport* report = nullptr;
  TimeNs lat_min = 0;
  double thr_max_bps = 0.0;
  uint32_t mss = 1500;
  TimeNs mtp = Milliseconds(30);
  double action_alpha = 0.025;
  // Competitive-mode multiplier on the policy's standing-queue appetite, set
  // by the controller from drain-probe outcomes (1.0 = no competition). This
  // is the distilled form of the learned behaviour §5.3.1 describes: "more
  // tolerance to latency inflation when occupying low bandwidth", which is
  // what keeps Astraea from starving next to buffer-filling schemes.
  double backlog_target_scale = 1.0;
};

class Policy {
 public:
  virtual ~Policy() = default;
  // Returns the action a in [-1, 1] (Eq. 3 input).
  virtual double Act(const StateView& view) const = 0;
  virtual std::string name() const = 0;
};

class MlpPolicy : public Policy {
 public:
  explicit MlpPolicy(Mlp actor) : actor_(std::move(actor)) {}
  static std::shared_ptr<MlpPolicy> LoadFromFile(const std::string& path);

  double Act(const StateView& view) const override;
  std::string name() const override { return "astraea-mlp"; }
  const Mlp& actor() const { return actor_; }

 private:
  Mlp actor_;
};

struct DistilledPolicyConfig {
  double target_backlog_pkts = 7.0;  // K: per-flow standing queue target
  double gain = 0.4;                 // fraction of the backlog error closed per RTT
  double loss_backoff_threshold = 0.02;  // congestive-loss reaction threshold
};

class DistilledPolicy : public Policy {
 public:
  explicit DistilledPolicy(DistilledPolicyConfig config = {}) : config_(config) {}

  double Act(const StateView& view) const override;
  std::string name() const override { return "astraea-distilled"; }
  const DistilledPolicyConfig& config() const { return config_; }

 private:
  DistilledPolicyConfig config_;
};

// The one rule for which policy "astraea" runs: the checkpoint at `path`, or
// at ASTRAEA_MODEL when `path` is empty, loaded through LoadActorFile (a
// missing or corrupt file throws SerializationError naming it; nothing is
// substituted); with neither, the distilled policy.
std::shared_ptr<const Policy> LoadDefaultPolicy(const std::string& path = "");

// Which policy LoadDefaultPolicy(path) runs, by the same rule: "distilled",
// or "<checkpoint path> crc32=<CRC32 of the file's bytes, %08x>" (the form
// perfbench records). A checkpoint that cannot be read throws
// SerializationError naming it.
std::string PolicyIdentity(const std::string& path = "");

// Eq. 3: multiplicative cwnd update under action a in [-1, 1].
uint64_t ApplyActionToCwnd(uint64_t cwnd_bytes, double action, double alpha, uint32_t mss);

}  // namespace astraea

#endif  // SRC_CORE_POLICY_H_
