// RemyCC (Winstein & Balakrishnan, SIGCOMM 2013): an offline-optimized
// rule-table controller. A real Remy run searches for the table maximizing a
// utility over a modelled network range; here we ship a compact hand-derived
// table (remy.cc) optimized for the paper's emulation range (tens of Mbps,
// tens of ms), which reproduces Remy's published trait of performing well
// inside its design range and conservatively outside it (paper Fig. 15).

#ifndef SRC_CC_REMY_H_
#define SRC_CC_REMY_H_

#include "src/sim/congestion_controller.h"

namespace astraea {

class Remy : public CongestionController {
 public:
  void OnFlowStart(TimeNs now, uint32_t mss) override;
  void OnAck(const AckEvent& ev) override;
  void OnLoss(const LossEvent& ev) override;

  uint64_t cwnd_bytes() const override;
  std::optional<double> pacing_bps() const override;
  std::string name() const override { return "remy"; }

 private:
  uint32_t mss_ = 1500;
  double cwnd_pkts_ = 10.0;
  TimeNs last_window_action_ = 0;
  TimeNs srtt_hint_ = Milliseconds(40);
  double intersend_multiplier_ = 1.0;
};

}  // namespace astraea

#endif  // SRC_CC_REMY_H_
