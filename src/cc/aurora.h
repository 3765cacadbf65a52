// Aurora (Jay et al., ICML 2019): single-agent DRL congestion control.
//
// Aurora observes a history of (latency gradient, latency ratio, sending
// ratio) statistics and outputs an action a in (-1, 1) mapped multiplicatively
// onto the sending rate. It is trained offline against the reward
//
//   r = 10 * throughput - 1000 * latency - 2000 * loss              (Eq. 1)
//
// which is throughput-dominated and fairness-agnostic — the behaviour the
// paper's Fig. 1a demonstrates (an Aurora incumbent never yields bandwidth).
//
// The policy is a deterministic stand-in for the published pretrained model
// (aurora.cc): it encodes the trained model's qualitative behaviour (monotone
// rate growth, indifference to moderate loss and queueing) so the motivation
// and comparison benches are reproducible without a training run. See
// DESIGN.md's substitution table.

#ifndef SRC_CC_AURORA_H_
#define SRC_CC_AURORA_H_

#include <array>
#include <deque>
#include <vector>

#include "src/sim/congestion_controller.h"

namespace astraea {

inline constexpr int kAuroraFeatures = 3;  // latency gradient, latency ratio, send ratio
inline constexpr int kAuroraHistory = 10;
inline constexpr int kAuroraStateDim = kAuroraFeatures * kAuroraHistory;

class Aurora : public CongestionController {
 public:
  void OnFlowStart(TimeNs now, uint32_t mss) override;
  void OnMtpTick(const MtpReport& report) override;
  void OnLoss(const LossEvent& ev) override;

  uint64_t cwnd_bytes() const override;
  std::optional<double> pacing_bps() const override { return rate_; }
  std::string name() const override { return "aurora"; }

  double rate_bps() const { return rate_; }
  // The stacked history (kAuroraHistory x kAuroraFeatures) the policy reads;
  // exposed for tests.
  std::vector<float> CurrentState() const;

 private:
  void PushFeatures(const MtpReport& report);

  uint32_t mss_ = 1500;
  double rate_ = 0.0;
  TimeNs srtt_hint_ = Milliseconds(40);
  double prev_rtt_ms_ = 0.0;
  std::deque<std::array<float, kAuroraFeatures>> history_;
};

}  // namespace astraea

#endif  // SRC_CC_AURORA_H_
