#include "src/cc/vegas.h"

#include <algorithm>

namespace astraea {

void Vegas::OnFlowStart(TimeNs /*now*/, uint32_t mss) {
  mss_ = mss;
  cwnd_ = 10ULL * mss_;
  ssthresh_ = UINT64_MAX;
}

double Vegas::QueueEstimate(TimeNs rtt, TimeNs base_rtt) const {
  if (rtt <= 0 || base_rtt <= 0) {
    return 0.0;
  }
  const double cwnd_pkts = static_cast<double>(cwnd_) / mss_;
  const double expected = cwnd_pkts / ToSeconds(base_rtt);  // pkts/s
  const double actual = cwnd_pkts / ToSeconds(rtt);
  return (expected - actual) * ToSeconds(base_rtt);  // packets in the queue
}

void Vegas::OnAck(const AckEvent& ev) {
  rtt_sum_ms_ += ToMillis(ev.rtt);
  ++rtt_samples_;
  if (ev.now - last_adjust_ < ev.srtt || rtt_samples_ == 0) {
    return;
  }
  const TimeNs avg_rtt =
      static_cast<TimeNs>(rtt_sum_ms_ / static_cast<double>(rtt_samples_) *
                          static_cast<double>(kNanosPerMilli));
  rtt_sum_ms_ = 0.0;
  rtt_samples_ = 0;
  last_adjust_ = ev.now;

  const double diff = QueueEstimate(avg_rtt, ev.min_rtt);

  if (cwnd_ < ssthresh_) {
    // Vegas slow start: double every other RTT while diff < gamma (=1).
    if (diff < 1.0) {
      cwnd_ += cwnd_ / 2;
    } else {
      ssthresh_ = cwnd_;
    }
    return;
  }
  if (diff < kAlpha) {
    cwnd_ += mss_;
  } else if (diff > kBeta) {
    cwnd_ = std::max<uint64_t>(cwnd_ - mss_, 2ULL * mss_);
  }
}

void Vegas::OnLoss(const LossEvent& ev) {
  if (ev.is_timeout) {
    cwnd_ = 2ULL * mss_;
    ssthresh_ = std::max<uint64_t>(cwnd_, 2ULL * mss_);
    return;
  }
  cwnd_ = std::max<uint64_t>(static_cast<uint64_t>(cwnd_ * 0.75), 2ULL * mss_);
  ssthresh_ = cwnd_;
}

}  // namespace astraea
