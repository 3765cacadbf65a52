// FlowTransport: one flow's transport bookkeeping, shared by both data planes
// — the simulator's Sender (src/sim/endpoint.cc) and the real-socket
// net::UdpSender (src/net/udp_sender.cc) — as the kernel's tcp_sock is shared
// by every congestion-control module. It keeps the outstanding window, the
// byte counters, the last-ACK clock and the FlowMeter; it holds the RTO rule
// and the window floor; and it builds every AckEvent, LossEvent and MtpReport
// a CongestionController receives. A controller therefore cannot tell which
// plane produced its events (DESIGN.md §13.3).
//
// Each sender keeps only what differs between the planes: its clock (the
// event queue, or timerfds under epoll), its wire (pooled packets, or
// datagrams), what triggers a prefix write-off (the simulator's FIFO gap, the
// UDP plane's SACK horizon), the UDP plane's delayed-ACK RTT correction, and
// the simulator's ECN counts, FlowStats series and trace records.
//
// Header-inline with no virtual call, callback or per-packet allocation: the
// simulator's sender is the hot path of every experiment.

#ifndef SRC_SIM_FLOW_TRANSPORT_H_
#define SRC_SIM_FLOW_TRANSPORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

#include "src/sim/congestion_controller.h"
#include "src/sim/flow_meter.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace astraea {

// A flow's wire-byte accounting, written only by its FlowTransport: every
// byte sent is acked, written off as lost, or still in flight.
struct ByteCounters {
  uint64_t bytes_sent = 0;
  uint64_t bytes_acked = 0;
  uint64_t bytes_lost = 0;
};

class FlowTransport {
 public:
  struct Outstanding {
    uint64_t seq;
    TimeNs sent_time;
    uint32_t size_bytes;
  };

  // RFC 6298: before the first RTT sample the RTO is a conservative 1 s, so
  // long-RTT paths (satellite: 800 ms) are not written off before the first
  // ACK; after it, max(kMinRto, srtt + 4 * rttvar).
  static constexpr TimeNs kInitialRto = Seconds(1.0);
  static constexpr TimeNs kMinRto = Milliseconds(200);
  // Never let the controller deadlock the flow: at least 2 MSS in flight.
  static constexpr uint64_t kMinCwndPackets = 2;

  // Every packet carries `mss` bytes. `bytes` is the owner's report struct,
  // which must outlive the transport.
  FlowTransport(uint32_t mss, ByteCounters* bytes) : mss_(mss), bytes_(bytes) {}

  // The flow (re)starts at `now`: the RTO and a stalled report's silence
  // count from here.
  void Start(TimeNs now) { last_ack_time_ = now; }

  // True while one more packet fits under max(cwnd, kMinCwndPackets MSS).
  bool WindowOpen(uint64_t cwnd_bytes) const {
    return inflight_bytes_ + mss_ <= std::max(cwnd_bytes, kMinCwndPackets * mss_);
  }

  // Records one packet sent at `now`; returns its sequence number.
  uint64_t Send(TimeNs now) {
    const uint64_t seq = next_seq_++;
    outstanding_.push_back({seq, now, mss_});
    inflight_bytes_ += mss_;
    bytes_->bytes_sent += mss_;
    meter_.OnPacketSent(mss_);
    return seq;
  }

  // Resolves outstanding()[i] as delivered at `now` with RTT sample `rtt`
  // and returns the controller's event (ecn_ce is the caller's to set).
  AckEvent Ack(size_t i, TimeNs now, TimeNs rtt) {
    const uint32_t size = outstanding_[i].size_bytes;
    // An in-order ACK resolves the front, where pop_front is much cheaper
    // than deque::erase's index bookkeeping (this runs once per packet).
    if (i == 0) {
      outstanding_.pop_front();
    } else {
      outstanding_.erase(outstanding_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASTRAEA_CHECK(inflight_bytes_ >= size);
    inflight_bytes_ -= size;
    bytes_->bytes_acked += size;
    last_ack_time_ = now;
    meter_.OnPacketAcked(now, rtt, size);

    AckEvent ev;
    ev.now = now;
    ev.rtt = rtt;
    ev.srtt = meter_.srtt();
    ev.min_rtt = meter_.min_rtt();
    ev.acked_bytes = size;
    ev.inflight_bytes = inflight_bytes_;
    ev.delivery_rate_bps = meter_.WindowedDeliveryRate(now);
    return ev;
  }

  // Writes off every outstanding packet with a sequence below `seq` (the
  // sender has proof they were dropped). Returns the controller's event, or
  // nothing when no packet was below `seq`.
  std::optional<LossEvent> WriteOffBefore(TimeNs now, uint64_t seq) {
    uint64_t lost = 0;
    while (!outstanding_.empty() && outstanding_.front().seq < seq) {
      lost += outstanding_.front().size_bytes;
      outstanding_.pop_front();
    }
    if (lost == 0) {
      return std::nullopt;
    }
    return WriteOff(now, lost, /*is_timeout=*/false);
  }

  // The RTO fired: writes off the whole window and restarts the ACK clock.
  LossEvent WriteOffAll(TimeNs now) {
    uint64_t lost = 0;
    for (const Outstanding& o : outstanding_) {
      lost += o.size_bytes;
    }
    outstanding_.clear();
    last_ack_time_ = now;
    return WriteOff(now, lost, /*is_timeout=*/true);
  }

  // The retransmission timeout an ACK arriving now would arm.
  TimeNs Rto() const {
    if (meter_.srtt() == 0) {
      return kInitialRto;
    }
    return std::max(kMinRto, meter_.srtt() + 4 * meter_.rttvar());
  }
  // The RTO fires once the clock reaches this with packets still outstanding.
  TimeNs RtoDeadline() const { return last_ack_time_ + Rto(); }

  // Ends the MTP interval at `now`: returns its report and starts the next.
  MtpReport CloseInterval(TimeNs now, TimeNs mtp, const CongestionController& cc) {
    const MtpReport report = meter_.BuildReport(now, mtp, last_ack_time_, inflight_bytes_,
                                                outstanding_.size(), cc);
    meter_.ResetInterval();
    return report;
  }

  uint64_t next_seq() const { return next_seq_; }
  uint64_t inflight_bytes() const { return inflight_bytes_; }
  const std::deque<Outstanding>& outstanding() const { return outstanding_; }
  const FlowMeter& meter() const { return meter_; }

 private:
  LossEvent WriteOff(TimeNs now, uint64_t lost, bool is_timeout) {
    ASTRAEA_CHECK(inflight_bytes_ >= lost);
    inflight_bytes_ -= lost;
    bytes_->bytes_lost += lost;
    meter_.OnBytesLost(lost);

    LossEvent ev;
    ev.now = now;
    ev.lost_bytes = lost;
    ev.is_timeout = is_timeout;
    ev.inflight_bytes = inflight_bytes_;
    return ev;
  }

  uint32_t mss_;
  ByteCounters* bytes_;
  uint64_t next_seq_ = 0;
  std::deque<Outstanding> outstanding_;  // ordered by seq
  uint64_t inflight_bytes_ = 0;
  TimeNs last_ack_time_ = 0;
  FlowMeter meter_;
};

}  // namespace astraea

#endif  // SRC_SIM_FLOW_TRANSPORT_H_
