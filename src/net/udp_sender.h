// UDP data-plane sender: drives a CongestionController over a real kernel
// socket through the same transport core as the simulator's Sender
// (FlowTransport, src/sim/flow_transport.h): one outstanding window, RTO
// rule, window floor and loss write-off, and the same AckEvent / LossEvent /
// MtpReport for the controller. See DESIGN.md §13.3.
//
// The event loop is epoll over the socket plus three CLOCK_MONOTONIC
// timerfds: pacing (armed at next_send_time when pacing_bps() is set), the
// MTP clock (every `mtp`), and the RTO. Loss detection is SACK-driven: the
// 64-bit bitmap in each ACK marks holes, and a hole is declared lost once
// three higher sequences are acknowledged (real networks reorder, so the
// simulator's FIFO "any gap is a drop" rule gets a dup-ACK-style threshold).
// An RTO writes off the whole outstanding window, as in the simulator.
//
// Data frames are not retransmitted (bulk-transfer model shared with the
// simulator): a loss is charged to the controller and the transfer completes
// when every frame has been acknowledged or written off.

#ifndef SRC_NET_UDP_SENDER_H_
#define SRC_NET_UDP_SENDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/socket_util.h"
#include "src/net/wire.h"
#include "src/sim/congestion_controller.h"
#include "src/sim/flow_transport.h"
#include "src/util/time.h"

namespace astraea {
namespace net {

struct UdpSenderConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint32_t flow_id = 1;
  // Application payload bytes to deliver; 0 = stream until max_runtime.
  uint64_t total_bytes = 0;
  // Total UDP payload bytes per data frame (wire header + pattern payload).
  // 1200 keeps frames under every sane path MTU (QUIC's choice).
  uint32_t mss = 1200;
  TimeNs mtp = Milliseconds(30);  // Monitoring Time Period (paper Table 4)
  // Hard wall-clock stop; 0 = run until the transfer resolves.
  TimeNs max_runtime = Seconds(120.0);
};

// The wire-byte counters (ByteCounters) are the transport core's, as in the
// simulator's FlowStats: sent = acked + lost at completion, since the window
// drains before the FIN phase.
struct UdpSenderReport : ByteCounters {
  uint64_t frames_sent = 0;
  uint64_t frames_acked = 0;
  uint64_t acks_received = 0;
  uint64_t corrupt_acks = 0;  // ACK datagrams that failed ParseFrame
  uint64_t gap_loss_events = 0;
  uint64_t rto_fires = 0;
  uint64_t mtp_ticks = 0;
  bool completed = false;  // every data frame acknowledged or written off
  bool fin_acked = false;  // receiver confirmed the FIN
  TimeNs elapsed = 0;
  // From the acked-frame RTT samples (milliseconds).
  double rtt_min_ms = 0.0;
  double rtt_p50_ms = 0.0;
  double rtt_p95_ms = 0.0;

  double goodput_bps() const {
    return elapsed > 0 ? static_cast<double>(bytes_acked) * 8.0 / ToSeconds(elapsed) : 0.0;
  }
};

class UdpSender {
 public:
  UdpSender(std::unique_ptr<CongestionController> cc, UdpSenderConfig config);
  ~UdpSender();

  UdpSender(const UdpSender&) = delete;
  UdpSender& operator=(const UdpSender&) = delete;

  // Blocks until the transfer resolves, max_runtime expires or
  // RequestStop(). Returns report().completed.
  bool Run();

  // Thread-safe; wakes the Run() loop.
  void RequestStop();

  const UdpSenderReport& report() const { return report_; }
  CongestionController& cc() { return *cc_; }
  const CongestionController& cc() const { return *cc_; }
  const FlowMeter& meter() const { return transport_.meter(); }

 private:
  bool HaveDataToSend() const;
  void PumpSends(TimeNs now);       // paced or window-limited burst
  void SendDataFrame(TimeNs now);
  void OnAckFrame(const AckFrame& ack, TimeNs now);
  void DetectSackLosses(TimeNs now);
  void OnRtoCheck(TimeNs now);
  void MtpTick(TimeNs now);
  void RunFinHandshake();
  void FinishReport(TimeNs started);

  std::unique_ptr<CongestionController> cc_;
  UdpSenderConfig config_;
  uint16_t payload_per_frame_ = 0;
  uint64_t frames_total_ = 0;  // 0 when config_.total_bytes == 0 (unbounded)

  UniqueFd socket_;
  UniqueFd stop_event_;
  UniqueFd pace_timer_;
  UniqueFd mtp_timer_;
  UniqueFd rto_timer_;
  sockaddr_in dest_{};
  std::atomic<bool> stop_requested_{false};

  UdpSenderReport report_;
  // Outstanding window, byte counters (in report_), RTO rule and the
  // controller's events: the transport core shared with the simulator.
  FlowTransport transport_{config_.mss, &report_};
  uint64_t max_acked_seq_ = 0;  // highest seq ever acknowledged
  bool any_acked_ = false;

  TimeNs next_send_time_ = 0;
  TimeNs next_mtp_time_ = 0;

  std::vector<float> rtt_samples_ms_;
};

}  // namespace net
}  // namespace astraea

#endif  // SRC_NET_UDP_SENDER_H_
