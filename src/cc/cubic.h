// TCP CUBIC (Ha, Rhee, Xu 2008 / RFC 8312): cubic window growth anchored at
// the last loss point W_max, with the TCP-friendly region for low-BDP paths.

#ifndef SRC_CC_CUBIC_H_
#define SRC_CC_CUBIC_H_

#include "src/sim/congestion_controller.h"

namespace astraea {

class Cubic : public CongestionController {
 public:
  void OnFlowStart(TimeNs now, uint32_t mss) override;
  void OnAck(const AckEvent& ev) override;
  void OnLoss(const LossEvent& ev) override;

  uint64_t cwnd_bytes() const override { return cwnd_; }
  std::string name() const override { return "cubic"; }

  bool in_slow_start() const { return cwnd_ < ssthresh_; }
  double w_max_packets() const { return w_max_; }

  // External window override (used by Orca, whose agent rescales the CUBIC
  // window and lets CUBIC continue from the applied value).
  void SetCwndBytes(uint64_t cwnd_bytes);

 private:
  double CubicWindow(double t_sec) const;  // in packets

  // RFC 8312: C = 0.4, beta_cubic = 0.7.
  static constexpr double kC = 0.4;
  static constexpr double kBeta = 0.7;

  uint32_t mss_ = 1500;
  uint64_t cwnd_ = 0;
  uint64_t ssthresh_ = UINT64_MAX;

  double w_max_ = 0.0;       // window at last loss, packets
  double k_ = 0.0;           // time to regrow to w_max, seconds
  TimeNs epoch_start_ = -1;  // start of the current cubic epoch
  TimeNs recovery_until_ = 0;
  TimeNs srtt_ = Milliseconds(40);

  // TCP-friendly (Reno-tracking) estimate, packets.
  double w_est_ = 0.0;
};

}  // namespace astraea

#endif  // SRC_CC_CUBIC_H_
