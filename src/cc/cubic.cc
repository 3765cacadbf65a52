#include "src/cc/cubic.h"

#include <algorithm>
#include <cmath>

namespace astraea {

void Cubic::OnFlowStart(TimeNs /*now*/, uint32_t mss) {
  mss_ = mss;
  cwnd_ = 10ULL * mss_;
  ssthresh_ = UINT64_MAX;
  epoch_start_ = -1;
}

double Cubic::CubicWindow(double t_sec) const {
  const double dt = t_sec - k_;
  return kC * dt * dt * dt + w_max_;
}

void Cubic::OnAck(const AckEvent& ev) {
  srtt_ = ev.srtt;
  if (ev.now < recovery_until_) {
    return;
  }
  if (in_slow_start()) {
    cwnd_ += ev.acked_bytes;
    return;
  }

  if (epoch_start_ < 0) {
    // First congestion-avoidance ACK of this epoch.
    epoch_start_ = ev.now;
    const double cwnd_pkts = static_cast<double>(cwnd_) / mss_;
    if (cwnd_pkts < w_max_) {
      k_ = std::cbrt((w_max_ - cwnd_pkts) / kC);
    } else {
      k_ = 0.0;
      w_max_ = cwnd_pkts;
    }
    w_est_ = cwnd_pkts;
  }

  const double t = ToSeconds(ev.now - epoch_start_);
  const double rtt_sec = ToSeconds(std::max<TimeNs>(ev.srtt, Milliseconds(1)));
  const double target = CubicWindow(t + rtt_sec);

  // TCP-friendly region (RFC 8312 §4.2): track what Reno would achieve.
  w_est_ += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) * static_cast<double>(ev.acked_bytes) /
            static_cast<double>(cwnd_);

  const double cwnd_pkts = static_cast<double>(cwnd_) / mss_;
  double next_pkts = cwnd_pkts;
  if (target > cwnd_pkts) {
    // Approach the cubic target over one RTT's worth of ACKs.
    next_pkts += (target - cwnd_pkts) / cwnd_pkts *
                 (static_cast<double>(ev.acked_bytes) / mss_);
  } else {
    next_pkts += 0.01 * static_cast<double>(ev.acked_bytes) / static_cast<double>(cwnd_);
  }
  next_pkts = std::max(next_pkts, w_est_);
  cwnd_ = std::max<uint64_t>(static_cast<uint64_t>(next_pkts * mss_), 2ULL * mss_);
}

void Cubic::SetCwndBytes(uint64_t cwnd_bytes) {
  cwnd_ = std::max<uint64_t>(cwnd_bytes, 2ULL * mss_);
  // Restart the cubic epoch from the applied window so growth is anchored at
  // the externally-chosen operating point.
  epoch_start_ = -1;
  if (cwnd_ >= ssthresh_ || ssthresh_ == UINT64_MAX) {
    ssthresh_ = cwnd_;
  }
}

void Cubic::OnLoss(const LossEvent& ev) {
  if (ev.is_timeout) {
    w_max_ = static_cast<double>(cwnd_) / mss_;
    ssthresh_ = std::max<uint64_t>(static_cast<uint64_t>(cwnd_ * kBeta), 2ULL * mss_);
    cwnd_ = 2ULL * mss_;
    epoch_start_ = -1;
    recovery_until_ = 0;
    return;
  }
  if (ev.now < recovery_until_) {
    return;
  }
  const double cwnd_pkts = static_cast<double>(cwnd_) / mss_;
  // Fast convergence (RFC 8312 §4.6).
  if (cwnd_pkts < w_max_) {
    w_max_ = cwnd_pkts * (1.0 + kBeta) / 2.0;
  } else {
    w_max_ = cwnd_pkts;
  }
  cwnd_ = std::max<uint64_t>(static_cast<uint64_t>(cwnd_ * kBeta), 2ULL * mss_);
  ssthresh_ = cwnd_;
  epoch_start_ = -1;
  recovery_until_ = ev.now + srtt_;
}

}  // namespace astraea
