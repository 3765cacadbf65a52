#include "src/cc/copa.h"

#include <algorithm>

namespace astraea {

void Copa::OnFlowStart(TimeNs now, uint32_t mss) {
  mss_ = mss;
  cwnd_pkts_ = 10.0;
  direction_since_ = now;
  last_near_empty_queue_ = now;
}

std::optional<double> Copa::pacing_bps() const {
  // Copa paces at 2 * cwnd / RTT to avoid self-induced bursts.
  const double rtt = ToSeconds(std::max<TimeNs>(srtt_hint_, Milliseconds(1)));
  return 2.0 * cwnd_pkts_ * mss_ * 8.0 / rtt;
}

void Copa::UpdateVelocity(bool direction_up, TimeNs now, TimeNs srtt) {
  if (direction_up != last_direction_up_) {
    velocity_ = 1.0;
    same_direction_rtts_ = 0;
    last_direction_up_ = direction_up;
    last_velocity_update_ = now;
    return;
  }
  if (now - last_velocity_update_ >= srtt) {
    last_velocity_update_ = now;
    ++same_direction_rtts_;
    // Velocity doubles once the direction has been stable for 3 RTTs.
    if (same_direction_rtts_ >= 3) {
      velocity_ = std::min(velocity_ * 2.0, cwnd_pkts_ / 2.0);
    }
  }
}

void Copa::UpdateMode(TimeNs now, TimeNs /*srtt*/, TimeNs standing, TimeNs min_rtt) {
  // "Nearly empty" means the standing queue is below 10% of min RTT.
  if (standing - min_rtt < min_rtt / 10) {
    last_near_empty_queue_ = now;
  }
  const TimeNs window = 5 * std::max<TimeNs>(srtt_hint_, Milliseconds(1));
  const bool competitor_detected = (now - last_near_empty_queue_) > window;
  if (competitor_detected && !competitive_) {
    competitive_ = true;
  } else if (!competitor_detected && competitive_) {
    competitive_ = false;
    delta_ = kDefaultDelta;
  }
  if (competitive_) {
    // Loss/competition mode: behave like AIMD by shrinking delta (more
    // aggressive). Copa halves delta down to a floor.
    delta_ = std::max(delta_ / 2.0, 0.05);
  }
}

void Copa::OnAck(const AckEvent& ev) {
  srtt_hint_ = ev.srtt;
  standing_rtt_.set_window(std::max<TimeNs>(ev.srtt / 2, Milliseconds(5)));
  standing_rtt_.Update(ev.now, ev.rtt);
  const TimeNs standing = standing_rtt_.Get(ev.now, ev.rtt);

  UpdateMode(ev.now, ev.srtt, standing, ev.min_rtt);

  const double dq = ToSeconds(std::max<TimeNs>(standing - ev.min_rtt, 0));
  const double rtt_sec = ToSeconds(std::max<TimeNs>(ev.srtt, Milliseconds(1)));

  double target_rate_pps;
  if (dq <= 1e-6) {
    target_rate_pps = 1e12;  // queue empty: always increase
  } else {
    target_rate_pps = 1.0 / (delta_ * dq);
  }
  const double current_rate_pps = cwnd_pkts_ / rtt_sec;

  const bool direction_up = current_rate_pps < target_rate_pps;
  UpdateVelocity(direction_up, ev.now, ev.srtt);

  const double step = velocity_ / (delta_ * cwnd_pkts_);  // packets, per ACK
  if (direction_up) {
    cwnd_pkts_ += step;
  } else {
    cwnd_pkts_ = std::max(cwnd_pkts_ - step, 2.0);
  }
}

void Copa::OnLoss(const LossEvent& ev) {
  if (ev.is_timeout) {
    cwnd_pkts_ = 2.0;
    velocity_ = 1.0;
  }
  // Copa's default mode does not react to individual packet losses.
}

}  // namespace astraea
