// FlowMeter: the per-flow measurement engine behind every MtpReport/AckEvent
// a CongestionController sees — RFC 6298 integer RTT estimators plus a
// windowed min-RTT floor, a BBR-style windowed delivery-rate estimate, and
// the per-MTP accumulators (acked/sent/lost bytes, RTT sum).
//
// It is the measuring half of FlowTransport (src/sim/flow_transport.h), the
// transport core that both data planes run: the discrete-event Sender feeds
// it virtual timestamps and the real UDP sender CLOCK_MONOTONIC ones.

#ifndef SRC_SIM_FLOW_METER_H_
#define SRC_SIM_FLOW_METER_H_

#include <algorithm>
#include <deque>
#include <utility>

#include "src/sim/congestion_controller.h"
#include "src/util/time.h"
#include "src/util/windowed_filter.h"

namespace astraea {

class FlowMeter {
 public:
  // min-RTT is a minimum over a sliding window (kernel-style) so routing
  // changes do not pin a stale floor forever. The window is long (the kernel
  // uses minutes) because controllers re-anchor it with explicit drain
  // probes; a short window lets a standing queue corrupt the floor, which
  // turns delay-based control into a positive feedback loop.
  static constexpr TimeNs kMinRttWindow = Seconds(60.0);

  FlowMeter() : min_rtt_filter_(kMinRttWindow) {}

  // One ACKed data packet: updates the RTT estimators, the delivery-rate
  // window and the per-interval accumulators.
  void OnPacketAcked(TimeNs now, TimeNs rtt, uint32_t acked_bytes) {
    min_rtt_filter_.Update(now, rtt);
    min_rtt_ = min_rtt_filter_.Peek(now, rtt);
    if (srtt_ == 0) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
    } else {
      const TimeNs err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
      rttvar_ = (3 * rttvar_ + err) / 4;
      srtt_ = (7 * srtt_ + rtt) / 8;
    }

    // Maintain the windowed goodput estimate (window = max(srtt, 50ms)).
    delivered_window_.emplace_back(now, acked_bytes);
    delivered_window_bytes_ += acked_bytes;
    const TimeNs window = std::max<TimeNs>(srtt_, Milliseconds(50));
    while (!delivered_window_.empty() && delivered_window_.front().first < now - window) {
      delivered_window_bytes_ -= delivered_window_.front().second;
      delivered_window_.pop_front();
    }

    interval_acked_bytes_ += acked_bytes;
    interval_acked_packets_ += 1;
    interval_rtt_sum_ms_ += ToMillis(rtt);
  }

  void OnPacketSent(uint32_t bytes) { interval_sent_bytes_ += bytes; }
  void OnBytesLost(uint64_t bytes) { interval_lost_bytes_ += bytes; }

  double WindowedDeliveryRate(TimeNs now) const {
    if (delivered_window_.empty()) {
      return 0.0;
    }
    const TimeNs span = now - delivered_window_.front().first;
    if (span <= 0) {
      return 0.0;
    }
    return static_cast<double>(delivered_window_bytes_) * 8.0 / ToSeconds(span);
  }

  // Assembles the per-MTP report from the interval accumulators. Does not
  // reset them (callers may also feed their FlowStats series from the
  // accessors below); call ResetInterval() once the interval is consumed.
  //
  // A zero-ACK interval is marked stalled, and its avg_rtt is the lower bound
  // implied by the silence — every outstanding packet has been in flight at
  // least `now - last_ack_time` — rather than the stale srtt, so the policy
  // never sees a (zero-throughput, healthy-latency) feature row.
  MtpReport BuildReport(TimeNs now, TimeNs mtp, TimeNs last_ack_time, uint64_t inflight_bytes,
                        uint64_t inflight_packets, const CongestionController& cc) const {
    MtpReport report;
    report.now = now;
    report.mtp = mtp;
    report.thr_bps = static_cast<double>(interval_acked_bytes_) * 8.0 / ToSeconds(mtp);
    report.loss_bps = static_cast<double>(interval_lost_bytes_) * 8.0 / ToSeconds(mtp);
    const uint64_t acked_plus_lost = interval_acked_bytes_ + interval_lost_bytes_;
    report.loss_ratio = acked_plus_lost == 0
                            ? 0.0
                            : static_cast<double>(interval_lost_bytes_) /
                                  static_cast<double>(acked_plus_lost);
    if (interval_acked_packets_ == 0) {
      report.stalled = true;
      report.avg_rtt = std::max(srtt_, now - last_ack_time);
    } else {
      report.avg_rtt =
          static_cast<TimeNs>(interval_rtt_sum_ms_ / static_cast<double>(interval_acked_packets_) *
                              static_cast<double>(kNanosPerMilli));
    }
    report.srtt = srtt_;
    report.min_rtt = min_rtt_;
    report.inflight_bytes = inflight_bytes;
    report.inflight_packets = inflight_packets;
    report.cwnd_bytes = cc.cwnd_bytes();
    report.pacing_bps = cc.pacing_bps().value_or(0.0);
    report.acked_packets = interval_acked_packets_;
    return report;
  }

  void ResetInterval() {
    interval_acked_bytes_ = 0;
    interval_sent_bytes_ = 0;
    interval_lost_bytes_ = 0;
    interval_acked_packets_ = 0;
    interval_rtt_sum_ms_ = 0.0;
  }

  TimeNs srtt() const { return srtt_; }
  TimeNs rttvar() const { return rttvar_; }
  TimeNs min_rtt() const { return min_rtt_; }

  uint64_t interval_acked_bytes() const { return interval_acked_bytes_; }
  uint64_t interval_sent_bytes() const { return interval_sent_bytes_; }
  uint64_t interval_lost_bytes() const { return interval_lost_bytes_; }
  uint64_t interval_acked_packets() const { return interval_acked_packets_; }
  double interval_rtt_sum_ms() const { return interval_rtt_sum_ms_; }

 private:
  TimeNs srtt_ = 0;
  TimeNs rttvar_ = 0;
  TimeNs min_rtt_ = 0;  // windowed floor (kMinRttWindow)
  WindowedMin<TimeNs> min_rtt_filter_;

  std::deque<std::pair<TimeNs, uint64_t>> delivered_window_;
  uint64_t delivered_window_bytes_ = 0;

  uint64_t interval_acked_bytes_ = 0;
  uint64_t interval_sent_bytes_ = 0;
  uint64_t interval_lost_bytes_ = 0;
  uint64_t interval_acked_packets_ = 0;
  double interval_rtt_sum_ms_ = 0.0;
};

}  // namespace astraea

#endif  // SRC_SIM_FLOW_METER_H_
