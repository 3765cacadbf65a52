#include "src/cc/remy.h"

#include <algorithm>
#include <iterator>

namespace astraea {
namespace {

// One Remy rule: matched on the observed RTT ratio, applying (window
// multiple, window increment, pacing multiplier).
struct RemyRule {
  double rtt_ratio_lo;
  double rtt_ratio_hi;
  double window_multiple;
  double window_increment_pkts;  // applied once per RTT
  double intersend_multiplier;   // >1 slows sending below the ACK rate
};

// Five operating regions keyed on rtt/min_rtt, from "queue empty" to
// "deep bufferbloat". Optimized (by hand, mimicking a Remy search outcome)
// for 10-200 Mbps / 10-150 ms paths.
constexpr RemyRule kRules[] = {
    {0.00, 1.05, 1.00, 2.0, 1.00},  // empty queue: grow fast
    {1.05, 1.30, 1.00, 1.0, 1.00},  // light queueing: grow gently
    {1.30, 1.70, 1.00, 0.0, 1.05},  // target band: hold, slight pace-down
    {1.70, 2.50, 0.96, 0.0, 1.10},  // heavy queueing: shrink
    {2.50, 1e9, 0.85, 0.0, 1.20},   // bufferbloat: shrink hard
};

const RemyRule& MatchRule(double rtt_ratio) {
  for (const RemyRule& rule : kRules) {
    if (rtt_ratio >= rule.rtt_ratio_lo && rtt_ratio < rule.rtt_ratio_hi) {
      return rule;
    }
  }
  return kRules[std::size(kRules) - 1];
}

}  // namespace

void Remy::OnFlowStart(TimeNs /*now*/, uint32_t mss) {
  mss_ = mss;
  cwnd_pkts_ = 10.0;
}

void Remy::OnAck(const AckEvent& ev) {
  srtt_hint_ = ev.srtt;
  const double min_rtt_ms = std::max(ToMillis(ev.min_rtt), 0.1);
  const double rtt_ratio = ToMillis(ev.rtt) / min_rtt_ms;
  const RemyRule& rule = MatchRule(rtt_ratio);
  intersend_multiplier_ = rule.intersend_multiplier;
  if (ev.now - last_window_action_ >= ev.srtt) {
    last_window_action_ = ev.now;
    cwnd_pkts_ = std::max(cwnd_pkts_ * rule.window_multiple + rule.window_increment_pkts, 2.0);
  }
}

void Remy::OnLoss(const LossEvent& ev) {
  if (ev.is_timeout) {
    cwnd_pkts_ = 2.0;
    return;
  }
  cwnd_pkts_ = std::max(cwnd_pkts_ * 0.7, 2.0);
}

uint64_t Remy::cwnd_bytes() const {
  return static_cast<uint64_t>(cwnd_pkts_ * mss_);
}

std::optional<double> Remy::pacing_bps() const {
  const double rtt = ToSeconds(std::max<TimeNs>(srtt_hint_, Milliseconds(1)));
  return cwnd_pkts_ * mss_ * 8.0 / rtt / intersend_multiplier_;
}

}  // namespace astraea
