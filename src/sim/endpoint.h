// Flow endpoints: a bulk-transfer Sender driven by a CongestionController and
// its paired Receiver. The receiver acknowledges every data packet; ACKs
// return over an uncongested reverse path modelled as a pure delay (the
// Mahimahi/Pantheon-tunnel setup the paper trains and evaluates in).
//
// Loss detection: queues are FIFO and there is a single path, so a gap in the
// acknowledged sequence space reliably identifies drops (perfect-SACK
// equivalent of 3-dup-ACK detection); an RTO fallback covers tail losses.
//
// RTO: each ACK (and Start, and each timeout) moves the sender's deadline to
// now + the RTO computed then. One event per sender carries it: an ACK that
// moves the deadline past the pending event leaves that event alone, and
// when it fires before the deadline it re-schedules itself to the deadline;
// an ACK that moves the deadline to or before the pending event (the RTO
// shrank) cancels it and schedules a new one. So the timeout fires at
// exactly the last ACK + the RTO computed at that ACK, and among events at
// that time it runs where a check scheduled at that ACK would run (each arm
// reserves that check's sequence number), while the queue holds one RTO
// event per sender. After Stop() the pending event fires once more and does
// nothing.

#ifndef SRC_SIM_ENDPOINT_H_
#define SRC_SIM_ENDPOINT_H_

#include <memory>
#include <string>
#include <utility>

#include "src/sim/congestion_controller.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_transport.h"
#include "src/sim/packet.h"
#include "src/sim/packet_pool.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace astraea {

class Sender;

// Liveness handle to a Sender for the closures that can outlive it: the ACKs
// a Receiver schedules and the sender's own MTP, pacing and RTO events. get()
// returns null once the sender is destroyed, so those events are discarded
// instead of dangling. The handles share one cell whose count is a plain
// integer, not an atomic: a Network and its senders are driven by one thread
// at a time, so no two threads ever copy or drop handles to one sender
// concurrently.
class SenderHandle {
 public:
  SenderHandle(const SenderHandle& other) noexcept : cell_(other.cell_) { ++cell_->refs; }
  SenderHandle(SenderHandle&& other) noexcept : cell_(std::exchange(other.cell_, nullptr)) {}
  SenderHandle& operator=(const SenderHandle&) = delete;
  SenderHandle& operator=(SenderHandle&&) = delete;
  ~SenderHandle() {
    if (cell_ != nullptr && --cell_->refs == 0) {
      delete cell_;
    }
  }

  Sender* get() const { return cell_->sender; }

 private:
  friend class Sender;
  struct Cell {
    Sender* sender;
    uint64_t refs;
  };
  explicit SenderHandle(Sender* sender) : cell_(new Cell{sender, 1}) {}

  Cell* cell_;
};

// Terminal sink of a data route: acknowledges each packet back to the sender
// after the configured reverse-path delay. The ACK-delivery lambda holds a
// SenderHandle, so a sender destroyed while ACKs are in flight (teardown
// mid-simulation) silently expires them instead of dangling.
class Receiver : public PacketSink {
 public:
  Receiver(EventQueue* events, PacketPool* pool, Sender* sender, TimeNs ack_return_delay)
      : events_(events), pool_(pool), sender_(sender), ack_return_delay_(ack_return_delay) {}

  // Terminal hop: copies out the ACK fields and releases the packet slot.
  void Accept(PacketRef ref) override;

  // Late binding used by Network: the receiver must exist before the sender
  // (the data route ends with the receiver), so the back-pointer is set after
  // both are constructed.
  void set_sender(Sender* sender) { sender_ = sender; }

  uint64_t received_bytes() const { return received_bytes_; }

 private:
  EventQueue* events_;
  PacketPool* pool_;
  Sender* sender_;
  TimeNs ack_return_delay_;
  uint64_t received_bytes_ = 0;
};

struct SenderConfig {
  uint32_t mss = 1500;
  TimeNs mtp = Milliseconds(30);      // Monitoring Time Period (Table 4)
  // Request/response transfers (incast): stop emitting new data once this
  // many bytes have been sent, and record FlowStats::completed_at when the
  // last outstanding byte is ACKed or written off. 0 = unlimited bulk
  // transfer (the default; existing scenarios are unaffected).
  uint64_t max_transfer_bytes = 0;
};

// Per-flow measurements collected at MTP granularity, beside the wire-byte
// counters (ByteCounters) that the flow's FlowTransport keeps.
struct FlowStats : ByteCounters {
  TimeSeries throughput_mbps;  // ACKed rate per MTP
  TimeSeries rtt_ms;           // mean ACK RTT per MTP (skipped when idle)
  TimeSeries cwnd_packets;
  TimeSeries sending_mbps;     // transmitted rate per MTP
  // ACKed bytes whose data packet carried a CE mark (ECN bottlenecks only).
  uint64_t bytes_ce_marked = 0;
  TimeNs started_at = -1;
  TimeNs stopped_at = -1;
  // Budgeted transfers only (SenderConfig::max_transfer_bytes > 0): when the
  // whole request was resolved (every sent byte ACKed or declared lost).
  TimeNs completed_at = -1;
};

class Sender {
 public:
  // `data_route` must end with this flow's Receiver. The route is copied and
  // owned by the sender. Data packets are acquired from `pool`.
  Sender(EventQueue* events, PacketPool* pool, int flow_id, Route data_route,
         std::unique_ptr<CongestionController> cc, SenderConfig config);
  ~Sender();

  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  void Start();             // begins transmitting now
  void Stop();              // stops transmitting now (inflight drains silently)
  bool running() const { return running_; }

  // Called by the Receiver when an ACK arrives back. `ecn_ce` echoes the CE
  // mark of the data packet (RFC 3168 ECE, immediate per-packet feedback as
  // in DCTCP); the default keeps every non-ECN call site unchanged.
  void OnAckArrival(uint64_t seq, TimeNs data_sent_time, uint32_t size_bytes,
                    bool ecn_ce = false);

  int flow_id() const { return flow_id_; }
  const FlowStats& stats() const { return stats_; }
  CongestionController& cc() { return *cc_; }
  const CongestionController& cc() const { return *cc_; }

  uint64_t inflight_bytes() const { return transport_.inflight_bytes(); }
  TimeNs srtt() const { return transport_.meter().srtt(); }
  TimeNs min_rtt() const { return transport_.meter().min_rtt(); }
  const MtpReport& last_report() const { return last_report_; }

  // Liveness handle for scheduled lambdas (ACK delivery, timers): they no-op
  // once the sender is destroyed. Expires in ~Sender().
  SenderHandle handle() const { return self_; }

  // The retransmission timeout an ACK arriving now would arm (FlowTransport::Rto).
  TimeNs rto() const { return transport_.Rto(); }

  // Attaches an event tracer recording send/ack/loss/rto-fire/cwnd for this
  // flow, and forwards it to the controller (kAction decisions). Null detaches.
  void set_tracer(Tracer* tracer);

  // Invariant-checker entry point (no-op unless invariants::Enabled()): flow
  // byte conservation (sent = acked + lost + in-flight), controller
  // cwnd/pacing sanity and — on deep audits — the O(n) recount of in-flight
  // bytes against the outstanding list. Called internally after every
  // ACK/loss/MTP event and by Network at the end of Run().
  void VerifyInvariants(const char* where, bool deep) const;

 private:
  // Budgeted transfers: true once max_transfer_bytes have been emitted.
  bool BudgetExhausted() const;
  // Budgeted transfers: records completed_at (once) when every sent byte has
  // been resolved, and stops the flow so its timers disarm.
  void MaybeComplete();
  void TrySend();                    // ACK-clocked burst send
  void SchedulePacedSend();          // paced send loop
  void SendPacket();
  // Moves the RTO deadline to now + rto() (see the file comment).
  void ArmRtoTimer();
  void ScheduleRtoEvent();
  void OnRtoCheck();
  void ScheduleMtpTick(uint64_t generation);
  void MtpTick();

  EventQueue* events_;
  PacketPool* pool_;
  int flow_id_;
  Route route_;
  std::unique_ptr<CongestionController> cc_;
  SenderConfig config_;
  Tracer* tracer_ = nullptr;

  SenderHandle self_{this};  // see handle()

  bool running_ = false;

  FlowStats stats_;
  // Outstanding window, byte counters (in stats_), RTO rule and the
  // controller's events: the transport core shared with the UDP data plane.
  FlowTransport transport_{config_.mss, &stats_};
  // CE-marked ACKed bytes this MTP. ECN stays beside the transport core: the
  // UDP data plane has no ECN feedback channel.
  uint64_t interval_ce_bytes_ = 0;

  // RTO: the deadline the last arm set, the sequence number it reserved, and
  // the one pending event (if any), which fires at or before the deadline.
  TimeNs rto_deadline_ = 0;
  uint64_t rto_seq_ = 0;
  bool rto_pending_ = false;
  TimeNs rto_event_at_ = 0;
  uint64_t rto_event_ = 0;

  // Paced-mode bookkeeping.
  bool pace_pending_ = false;
  TimeNs next_send_time_ = 0;

  // Invariant-checker deep-audit tick (only advances when the checker is on).
  mutable uint64_t audit_tick_ = 0;

  uint64_t mtp_generation_ = 0;
  MtpReport last_report_;
};

}  // namespace astraea

#endif  // SRC_SIM_ENDPOINT_H_
