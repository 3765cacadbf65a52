#include "src/cc/aurora.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace astraea {
namespace {

// Multiplicative rate step per unit action (Aurora's delta).
constexpr double kRateStep = 0.025;

// Deterministic surrogate for the published pretrained model. `state` is the
// stacked history; the latest feature triple is at its end.
double PretrainedAuroraAction(std::span<const float> state) {
  const float latency_gradient = state[state.size() - 3];
  const float send_ratio = state[state.size() - 1];

  // Published Aurora behaviour (see the Aurora paper's analysis and this
  // paper's Fig. 1a): the reward's throughput term dominates, so the learned
  // policy keeps increasing the rate as long as latency is not inflating
  // *rapidly*, shrugs off moderate loss, and never deliberately yields
  // capacity to a competitor. Both signals the policy brakes on — the
  // latency *gradient* and the loss rate — are shared by all flows on the
  // bottleneck, so competing Aurora flows scale multiplicatively in lockstep
  // and their throughput ratio stays frozen at whatever it was when the link
  // saturated: the incumbent keeps (almost) everything.
  const float loss_fraction = send_ratio > 1.0f ? 1.0f - 1.0f / send_ratio : 0.0f;
  if (loss_fraction > 0.005f) {
    // On a full DropTail buffer the trained policy equilibrates slightly above
    // capacity: proportional control around a small standing loss rate
    // (the -2000*loss reward term).
    return std::clamp(30.0 * (0.03 - static_cast<double>(loss_fraction)), -1.0, 1.0);
  }
  if (latency_gradient > 0.02f) {
    // Queue growing quickly: brake (the -1000*latency reward term).
    return std::clamp(-5.0 * (latency_gradient - 0.02f), -0.4, 0.0);
  }
  return 1.0;  // grab
}

}  // namespace

void Aurora::OnFlowStart(TimeNs /*now*/, uint32_t mss) {
  mss_ = mss;
  rate_ = Mbps(2.0);
  history_.clear();
}

uint64_t Aurora::cwnd_bytes() const {
  const double rtt = ToSeconds(std::max<TimeNs>(srtt_hint_, Milliseconds(1)));
  return std::max<uint64_t>(static_cast<uint64_t>(2.0 * rate_ * rtt / 8.0), 4ULL * mss_);
}

void Aurora::PushFeatures(const MtpReport& report) {
  const double rtt_ms = ToMillis(report.avg_rtt);
  const double min_rtt_ms = std::max(ToMillis(report.min_rtt), 0.1);
  float latency_gradient = 0.0f;
  if (prev_rtt_ms_ > 0.0 && rtt_ms > 0.0) {
    latency_gradient =
        static_cast<float>((rtt_ms - prev_rtt_ms_) / 1000.0 / ToSeconds(report.mtp));
  }
  if (rtt_ms > 0.0) {
    prev_rtt_ms_ = rtt_ms;
  }
  const float latency_ratio = rtt_ms > 0.0 ? static_cast<float>(rtt_ms / min_rtt_ms) : 1.0f;
  const double acked_plus_lost = report.thr_bps + report.loss_bps;
  const float send_ratio =
      report.thr_bps > 0.0 ? static_cast<float>(acked_plus_lost / report.thr_bps) : 1.0f;
  history_.push_back({latency_gradient, latency_ratio, send_ratio});
  while (history_.size() > kAuroraHistory) {
    history_.pop_front();
  }
}

std::vector<float> Aurora::CurrentState() const {
  std::vector<float> state(kAuroraStateDim, 0.0f);
  // Oldest first; zero-padded on the left until the history fills.
  size_t offset = kAuroraStateDim - history_.size() * kAuroraFeatures;
  for (const auto& triple : history_) {
    for (float f : triple) {
      state[offset++] = f;
    }
  }
  // Pad missing leading ratios with neutral values.
  for (size_t i = 0; i < kAuroraStateDim - history_.size() * kAuroraFeatures; i += 3) {
    state[i + 1] = 1.0f;  // latency ratio
    state[i + 2] = 1.0f;  // send ratio
  }
  return state;
}

void Aurora::OnMtpTick(const MtpReport& report) {
  srtt_hint_ = std::max<TimeNs>(report.srtt, Milliseconds(1));
  PushFeatures(report);
  const std::vector<float> state = CurrentState();
  const double a = PretrainedAuroraAction(state);
  if (a >= 0.0) {
    rate_ *= 1.0 + kRateStep * a;
  } else {
    rate_ /= 1.0 - kRateStep * a;
  }
  rate_ = std::clamp(rate_, Kbps(100.0), Gbps(20.0));
}

void Aurora::OnLoss(const LossEvent& ev) {
  if (ev.is_timeout) {
    rate_ = std::max(rate_ / 2.0, Kbps(100.0));
  }
}

}  // namespace astraea
