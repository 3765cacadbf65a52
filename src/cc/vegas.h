// TCP Vegas (Brakmo & Peterson 1994): delay-based congestion avoidance that
// keeps between alpha and beta packets queued at the bottleneck.

#ifndef SRC_CC_VEGAS_H_
#define SRC_CC_VEGAS_H_

#include "src/sim/congestion_controller.h"

namespace astraea {

class Vegas : public CongestionController {
 public:
  void OnFlowStart(TimeNs now, uint32_t mss) override;
  void OnAck(const AckEvent& ev) override;
  void OnLoss(const LossEvent& ev) override;

  uint64_t cwnd_bytes() const override { return cwnd_; }
  std::string name() const override { return "vegas"; }

  // Estimated packets queued at the bottleneck (the Vegas "diff").
  double QueueEstimate(TimeNs rtt, TimeNs base_rtt) const;

 private:
  static constexpr double kAlpha = 2.0;  // packets queued: grow below this
  static constexpr double kBeta = 4.0;   // packets queued: shrink above this

  uint32_t mss_ = 1500;
  uint64_t cwnd_ = 0;
  uint64_t ssthresh_ = UINT64_MAX;
  TimeNs last_adjust_ = 0;  // Vegas adjusts once per RTT
  double rtt_sum_ms_ = 0.0;
  uint64_t rtt_samples_ = 0;
};

}  // namespace astraea

#endif  // SRC_CC_VEGAS_H_
