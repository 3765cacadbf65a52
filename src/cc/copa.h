// Copa (Arun & Balakrishnan, NSDI 2018): delay-based control toward the
// target rate lambda* = 1 / (delta * d_q), where d_q is the standing queuing
// delay. Velocity doubling accelerates convergence; direction flips reset it.
// Copa leaves its default mode (delta = 0.5) for a competitive mode when the
// standing queue stops draining. The paper names these erroneous mode switches
// as Copa's instability source, so the switch is always on, to reproduce that
// oscillation.

#ifndef SRC_CC_COPA_H_
#define SRC_CC_COPA_H_

#include "src/util/windowed_filter.h"
#include "src/sim/congestion_controller.h"

namespace astraea {

class Copa : public CongestionController {
 public:
  void OnFlowStart(TimeNs now, uint32_t mss) override;
  void OnAck(const AckEvent& ev) override;
  void OnLoss(const LossEvent& ev) override;

  uint64_t cwnd_bytes() const override { return static_cast<uint64_t>(cwnd_pkts_ * mss_); }
  std::optional<double> pacing_bps() const override;
  std::string name() const override { return "copa"; }

  double velocity() const { return velocity_; }
  bool in_competitive_mode() const { return competitive_; }

 private:
  void UpdateVelocity(bool direction_up, TimeNs now, TimeNs srtt);
  void UpdateMode(TimeNs now, TimeNs srtt, TimeNs standing, TimeNs min_rtt);

  static constexpr double kDefaultDelta = 0.5;

  double delta_ = kDefaultDelta;
  uint32_t mss_ = 1500;
  double cwnd_pkts_ = 10.0;
  TimeNs srtt_hint_ = Milliseconds(40);

  WindowedMin<TimeNs> standing_rtt_{Milliseconds(20)};  // window = srtt/2, set per ACK

  double velocity_ = 1.0;
  bool last_direction_up_ = true;
  TimeNs direction_since_ = 0;
  int same_direction_rtts_ = 0;
  TimeNs last_velocity_update_ = 0;

  // Competitive-mode detection: if the standing queue has not drained to near
  // the minimum over ~5 RTTs, assume a buffer-filling competitor.
  bool competitive_ = false;
  TimeNs last_near_empty_queue_ = 0;
};

}  // namespace astraea

#endif  // SRC_CC_COPA_H_
