#include "src/sim/endpoint.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/sim/invariants.h"
#include "src/util/logging.h"

namespace astraea {

namespace {
// Every kDeepAuditPeriod-th check also recounts in-flight bytes against the
// outstanding list (O(window)); the per-event checks stay O(1).
constexpr uint64_t kDeepAuditPeriod = 256;
// Generous cwnd ceiling: 1 TiB in flight means the controller's arithmetic
// overflowed or went negative, not that the network is fast.
constexpr uint64_t kMaxSaneCwndBytes = 1ULL << 40;
}  // namespace

void Receiver::Accept(PacketRef ref) {
  // Copy the ACK fields out and return the slot: the packet's life ends here.
  const Packet& pkt = pool_->Get(ref);
  const uint64_t seq = pkt.seq;
  const TimeNs sent = pkt.sent_time;
  const uint32_t size = pkt.size_bytes;
  const bool ecn_ce = pkt.ecn_ce;
  pool_->Release(ref);
  received_bytes_ += size;
  if (sender_ == nullptr) {
    return;
  }
  // The reverse path is uncongested: deliver the ACK after a pure delay. The
  // lambda holds only a liveness handle — if the sender is torn down before
  // the ACK lands, the handle has expired and the ACK is silently discarded.
  events_->ScheduleAfter(ack_return_delay_,
                         [sender = sender_->handle(), seq, sent, size, ecn_ce] {
                           if (Sender* self = sender.get()) {
                             self->OnAckArrival(seq, sent, size, ecn_ce);
                           }
                         });
}

Sender::Sender(EventQueue* events, PacketPool* pool, int flow_id, Route data_route,
               std::unique_ptr<CongestionController> cc, SenderConfig config)
    : events_(events),
      pool_(pool),
      flow_id_(flow_id),
      route_(std::move(data_route)),
      cc_(std::move(cc)),
      config_(config) {
  ASTRAEA_CHECK(!route_.empty());
  ASTRAEA_CHECK(pool_ != nullptr);
  ASTRAEA_CHECK(cc_ != nullptr);
}

Sender::~Sender() { self_.cell_->sender = nullptr; }

void Sender::VerifyInvariants(const char* where, bool deep) const {
  if (!invariants::Enabled()) {
    return;
  }
  // Conservation: every sent byte is acked, declared lost, or still in
  // flight. Wire/queue drops live in "in flight" until the ACK gap or the
  // RTO writes them off, so this holds at every instant.
  const uint64_t inflight = transport_.inflight_bytes();
  if (stats_.bytes_sent != stats_.bytes_acked + stats_.bytes_lost + inflight) {
    invariants::Report("flow.conservation",
                       std::string(where) + " flow " + std::to_string(flow_id_) + ": sent " +
                           std::to_string(stats_.bytes_sent) + " B != acked " +
                           std::to_string(stats_.bytes_acked) + " + lost " +
                           std::to_string(stats_.bytes_lost) + " + inflight " +
                           std::to_string(inflight) + " B");
  }
  // Controllers may legitimately report cwnd 0 before Start() or after a
  // Stop() collapse, so the zero check only applies while the flow transmits.
  const uint64_t cwnd = cc_->cwnd_bytes();
  if ((cwnd == 0 && running_) || cwnd > kMaxSaneCwndBytes) {
    invariants::Report("cc.cwnd_range", std::string(where) + " flow " +
                                            std::to_string(flow_id_) + " (" + cc_->name() +
                                            "): cwnd " + std::to_string(cwnd) + " B");
  }
  if (const std::optional<double> pacing = cc_->pacing_bps(); pacing.has_value()) {
    if (!std::isfinite(*pacing) || *pacing < 0.0 || (*pacing == 0.0 && running_)) {
      invariants::Report("cc.pacing_range", std::string(where) + " flow " +
                                                std::to_string(flow_id_) + " (" + cc_->name() +
                                                "): pacing " + std::to_string(*pacing) + " bps");
    }
  }
  // Note: min_rtt can transiently exceed srtt after the windowed min expires
  // while the EWMA is still converging, so only sign sanity is checked here.
  if (srtt() < 0 || min_rtt() < 0) {
    invariants::Report("flow.rtt_estimators",
                       std::string(where) + " flow " + std::to_string(flow_id_) + ": srtt " +
                           std::to_string(srtt()) + " ns, min_rtt " +
                           std::to_string(min_rtt()) + " ns");
  }
  if (deep) {
    uint64_t recount = 0;
    for (const FlowTransport::Outstanding& o : transport_.outstanding()) {
      recount += o.size_bytes;
    }
    if (recount != inflight) {
      invariants::Report("flow.inflight_audit",
                         std::string(where) + " flow " + std::to_string(flow_id_) +
                             ": inflight counter " + std::to_string(inflight) +
                             " B != outstanding-list total " + std::to_string(recount) + " B");
    }
  }
}

void Sender::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  cc_->set_tracer(tracer, flow_id_);
}

void Sender::Start() {
  ASTRAEA_CHECK(!running_);
  running_ = true;
  stats_.started_at = events_->now();
  transport_.Start(events_->now());
  cc_->OnFlowStart(events_->now(), config_.mss);
  next_send_time_ = events_->now();

  ScheduleMtpTick(++mtp_generation_);  // arm the MTP clock

  if (cc_->pacing_bps().has_value()) {
    SchedulePacedSend();
  } else {
    TrySend();
  }
  ArmRtoTimer();
}

void Sender::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  stats_.stopped_at = events_->now();
  ++mtp_generation_;  // disarm MTP clock; the RTO event finds !running_
}

bool Sender::BudgetExhausted() const {
  return config_.max_transfer_bytes > 0 && stats_.bytes_sent >= config_.max_transfer_bytes;
}

void Sender::MaybeComplete() {
  if (config_.max_transfer_bytes == 0 || stats_.completed_at >= 0 || !BudgetExhausted() ||
      transport_.inflight_bytes() != 0) {
    return;
  }
  stats_.completed_at = events_->now();
  Stop();
}

void Sender::TrySend() {
  while (running_ && !BudgetExhausted() && transport_.WindowOpen(cc_->cwnd_bytes())) {
    SendPacket();
  }
}

void Sender::SchedulePacedSend() {
  if (!running_ || pace_pending_ || BudgetExhausted()) {
    return;
  }
  if (!transport_.WindowOpen(cc_->cwnd_bytes())) {
    return;  // cwnd-limited; resumed by the next ACK/loss/MTP event
  }
  const TimeNs now = events_->now();
  next_send_time_ = std::max(next_send_time_, now);
  pace_pending_ = true;
  events_->Schedule(next_send_time_, [sender = handle()] {
    Sender* self = sender.get();
    if (self == nullptr) {
      return;
    }
    self->pace_pending_ = false;
    if (!self->running_ || self->BudgetExhausted() ||
        !self->transport_.WindowOpen(self->cc_->cwnd_bytes())) {
      return;
    }
    self->SendPacket();
    const double rate = self->cc_->pacing_bps().value_or(0.0);
    if (rate > 0.0) {
      self->next_send_time_ += TransmissionDelay(self->config_.mss, rate);
    }
    self->SchedulePacedSend();
  });
}

void Sender::SendPacket() {
  const PacketRef ref = pool_->Acquire();
  Packet& pkt = pool_->Get(ref);
  pkt.flow_id = flow_id_;
  pkt.seq = transport_.Send(events_->now());
  pkt.size_bytes = config_.mss;
  pkt.sent_time = events_->now();
  pkt.route = &route_;
  pkt.hop = 0;
  // Pool slots recycle; both ECN fields must be re-initialized every send.
  pkt.ecn_capable = cc_->EcnCapable();
  pkt.ecn_ce = false;
  if (tracer_ != nullptr) {
    tracer_->Record(pkt.sent_time, TraceEventType::kSend, flow_id_, -1, pkt.seq,
                    static_cast<double>(pkt.size_bytes),
                    static_cast<double>(transport_.inflight_bytes()));
  }
  route_[0]->Accept(ref);
}

void Sender::OnAckArrival(uint64_t seq, TimeNs data_sent_time, uint32_t size_bytes,
                          bool ecn_ce) {
  // ACKs arriving after Stop() still update accounting so inflight drains.
  const TimeNs now = events_->now();
  // FIFO network: every still-outstanding packet older than the ACKed one was
  // dropped (congestive or wire loss).
  if (const std::optional<LossEvent> loss = transport_.WriteOffBefore(now, seq)) {
    if (tracer_ != nullptr) {
      tracer_->Record(now, TraceEventType::kLoss, flow_id_, -1, seq,
                      static_cast<double>(loss->lost_bytes),
                      static_cast<double>(loss->inflight_bytes));
    }
    cc_->OnLoss(*loss);
  }
  if (transport_.outstanding().empty() || transport_.outstanding().front().seq != seq) {
    MaybeComplete();  // the gap write-off may have resolved the last bytes
    return;           // already written off by an RTO; ignore the late ACK
  }
  AckEvent ev = transport_.Ack(0, now, now - data_sent_time);
  if (ecn_ce) {
    stats_.bytes_ce_marked += size_bytes;
    interval_ce_bytes_ += size_bytes;
  }
  if (tracer_ != nullptr) {
    tracer_->Record(now, TraceEventType::kAck, flow_id_, -1, seq, ToMillis(ev.rtt),
                    static_cast<double>(ev.inflight_bytes));
  }

  if (running_) {
    ev.ecn_ce = ecn_ce;
    cc_->OnAck(ev);

    if (cc_->pacing_bps().has_value()) {
      SchedulePacedSend();
    } else {
      TrySend();
    }
    ArmRtoTimer();
  }
  MaybeComplete();
  if (invariants::Enabled()) {
    VerifyInvariants("OnAckArrival", ++audit_tick_ % kDeepAuditPeriod == 0);
  }
}

void Sender::ArmRtoTimer() {
  rto_deadline_ = events_->now() + rto();
  // The sequence number a check scheduled now would take: wherever the event
  // ends up being scheduled from, it runs in this arm's place among events
  // at the deadline.
  rto_seq_ = events_->ReserveSeq();
  if (rto_pending_) {
    if (rto_event_at_ < rto_deadline_) {
      return;  // fires early and re-schedules itself to the deadline
    }
    // Replaced even when it lies exactly on the deadline: it carries an older
    // arm's sequence number.
    events_->Cancel(rto_event_);
  }
  ScheduleRtoEvent();
}

void Sender::ScheduleRtoEvent() {
  rto_pending_ = true;
  rto_event_at_ = rto_deadline_;
  rto_event_ = events_->ScheduleReserved(rto_deadline_, rto_seq_, [sender = handle()] {
    if (Sender* self = sender.get()) {
      self->OnRtoCheck();
    }
  });
}

void Sender::OnRtoCheck() {
  rto_pending_ = false;
  if (!running_) {
    return;  // stopped; Start() arms a new deadline
  }
  const TimeNs now = events_->now();
  if (now < rto_deadline_) {
    ScheduleRtoEvent();
    return;
  }
  if (transport_.outstanding().empty()) {
    return;  // nothing in flight; next send re-arms the timer via its ACK
  }
  if (now < transport_.RtoDeadline()) {
    ArmRtoTimer();
    return;
  }
  const LossEvent loss = transport_.WriteOffAll(now);
  if (tracer_ != nullptr) {
    tracer_->Record(now, TraceEventType::kRtoFire, flow_id_, -1, transport_.next_seq(),
                    static_cast<double>(loss.lost_bytes), ToMillis(rto()));
  }
  cc_->OnLoss(loss);

  if (cc_->pacing_bps().has_value()) {
    SchedulePacedSend();
  } else {
    TrySend();
  }
  ArmRtoTimer();
  MaybeComplete();
  if (invariants::Enabled()) {
    VerifyInvariants("OnRtoCheck", ++audit_tick_ % kDeepAuditPeriod == 0);
  }
}

void Sender::MtpTick() {
  const TimeNs now = events_->now();

  // The FlowStats series and the ECN share read the interval before it closes.
  const FlowMeter& meter = transport_.meter();
  if (meter.interval_acked_packets() > 0) {
    stats_.rtt_ms.Add(now, meter.interval_rtt_sum_ms() /
                               static_cast<double>(meter.interval_acked_packets()));
  }
  stats_.sending_mbps.Add(now, ToMbps(static_cast<double>(meter.interval_sent_bytes()) * 8.0 /
                                      ToSeconds(config_.mtp)));
  const double acked_bytes = static_cast<double>(meter.interval_acked_bytes());
  MtpReport report = transport_.CloseInterval(now, config_.mtp, *cc_);
  report.ecn_ce_bytes = interval_ce_bytes_;
  report.ecn_ce_ratio =
      acked_bytes > 0.0 ? static_cast<double>(interval_ce_bytes_) / acked_bytes : 0.0;
  interval_ce_bytes_ = 0;
  last_report_ = report;
  stats_.throughput_mbps.Add(now, ToMbps(report.thr_bps));
  stats_.cwnd_packets.Add(now, static_cast<double>(report.cwnd_bytes) / config_.mss);

  cc_->OnMtpTick(report);
  if (tracer_ != nullptr) {
    // Post-decision cwnd/pacing, one record per MTP.
    tracer_->Record(now, TraceEventType::kCwnd, flow_id_, -1, mtp_generation_,
                    static_cast<double>(cc_->cwnd_bytes()),
                    cc_->pacing_bps().value_or(0.0));
  }

  // The controller may have changed cwnd/pacing: give it a chance to send.
  if (cc_->pacing_bps().has_value()) {
    SchedulePacedSend();
  } else {
    TrySend();
  }

  ScheduleMtpTick(mtp_generation_);
  if (invariants::Enabled()) {
    VerifyInvariants("MtpTick", ++audit_tick_ % kDeepAuditPeriod == 0);
  }
}

void Sender::ScheduleMtpTick(uint64_t generation) {
  events_->ScheduleAfter(config_.mtp, [sender = handle(), generation] {
    Sender* self = sender.get();
    if (self != nullptr && generation == self->mtp_generation_ && self->running_) {
      self->MtpTick();
    }
  });
}

}  // namespace astraea
