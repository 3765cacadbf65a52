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
      config_(config),
      meter_(config.min_rtt_window) {
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
  if (stats_.bytes_sent != stats_.bytes_acked + stats_.bytes_lost + inflight_bytes_) {
    invariants::Report("flow.conservation",
                       std::string(where) + " flow " + std::to_string(flow_id_) + ": sent " +
                           std::to_string(stats_.bytes_sent) + " B != acked " +
                           std::to_string(stats_.bytes_acked) + " + lost " +
                           std::to_string(stats_.bytes_lost) + " + inflight " +
                           std::to_string(inflight_bytes_) + " B");
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
  if (meter_.srtt() < 0 || meter_.min_rtt() < 0) {
    invariants::Report("flow.rtt_estimators",
                       std::string(where) + " flow " + std::to_string(flow_id_) + ": srtt " +
                           std::to_string(meter_.srtt()) + " ns, min_rtt " +
                           std::to_string(meter_.min_rtt()) + " ns");
  }
  if (deep) {
    uint64_t recount = 0;
    for (const Outstanding& o : outstanding_) {
      recount += o.size_bytes;
    }
    if (recount != inflight_bytes_) {
      invariants::Report("flow.inflight_audit",
                         std::string(where) + " flow " + std::to_string(flow_id_) +
                             ": inflight counter " + std::to_string(inflight_bytes_) +
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
  last_ack_time_ = events_->now();
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

uint64_t Sender::EffectiveCwnd() const {
  // Never let the controller deadlock the flow: at least 2 MSS in flight.
  return std::max<uint64_t>(cc_->cwnd_bytes(), 2ULL * config_.mss);
}

bool Sender::BudgetExhausted() const {
  return config_.max_transfer_bytes > 0 && stats_.bytes_sent >= config_.max_transfer_bytes;
}

void Sender::MaybeComplete() {
  if (config_.max_transfer_bytes == 0 || stats_.completed_at >= 0 || !BudgetExhausted() ||
      inflight_bytes_ != 0) {
    return;
  }
  stats_.completed_at = events_->now();
  Stop();
}

void Sender::TrySend() {
  while (running_ && !BudgetExhausted() && inflight_bytes_ + config_.mss <= EffectiveCwnd()) {
    SendPacket();
  }
}

void Sender::SchedulePacedSend() {
  if (!running_ || pace_pending_ || BudgetExhausted()) {
    return;
  }
  if (inflight_bytes_ + config_.mss > EffectiveCwnd()) {
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
        self->inflight_bytes_ + self->config_.mss > self->EffectiveCwnd()) {
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
  pkt.seq = next_seq_++;
  pkt.size_bytes = config_.mss;
  pkt.sent_time = events_->now();
  pkt.route = &route_;
  pkt.hop = 0;
  // Pool slots recycle; both ECN fields must be re-initialized every send.
  pkt.ecn_capable = cc_->EcnCapable();
  pkt.ecn_ce = false;
  outstanding_.push_back({pkt.seq, pkt.sent_time, pkt.size_bytes});
  inflight_bytes_ += pkt.size_bytes;
  stats_.bytes_sent += pkt.size_bytes;
  meter_.OnPacketSent(pkt.size_bytes);
  if (tracer_ != nullptr) {
    tracer_->Record(pkt.sent_time, TraceEventType::kSend, flow_id_, -1, pkt.seq,
                    static_cast<double>(pkt.size_bytes),
                    static_cast<double>(inflight_bytes_));
  }
  route_[0]->Accept(ref);
}

void Sender::DetectGapLosses(uint64_t acked_seq) {
  // FIFO network: every still-outstanding packet older than the ACKed one was
  // dropped (congestive or wire loss).
  uint64_t lost = 0;
  while (!outstanding_.empty() && outstanding_.front().seq < acked_seq) {
    lost += outstanding_.front().size_bytes;
    outstanding_.pop_front();
  }
  if (lost > 0) {
    ASTRAEA_CHECK(inflight_bytes_ >= lost);
    inflight_bytes_ -= lost;
    stats_.bytes_lost += lost;
    meter_.OnBytesLost(lost);
    if (tracer_ != nullptr) {
      tracer_->Record(events_->now(), TraceEventType::kLoss, flow_id_, -1, acked_seq,
                      static_cast<double>(lost), static_cast<double>(inflight_bytes_));
    }
    LossEvent ev;
    ev.now = events_->now();
    ev.lost_bytes = lost;
    ev.is_timeout = false;
    ev.inflight_bytes = inflight_bytes_;
    cc_->OnLoss(ev);
  }
}

void Sender::OnAckArrival(uint64_t seq, TimeNs data_sent_time, uint32_t size_bytes,
                          bool ecn_ce) {
  // ACKs arriving after Stop() still update accounting so inflight drains.
  const TimeNs now = events_->now();
  DetectGapLosses(seq);
  if (outstanding_.empty() || outstanding_.front().seq != seq) {
    MaybeComplete();  // the gap write-off may have resolved the last bytes
    return;           // already written off by an RTO; ignore the late ACK
  }
  outstanding_.pop_front();
  ASTRAEA_CHECK(inflight_bytes_ >= size_bytes);
  inflight_bytes_ -= size_bytes;
  stats_.bytes_acked += size_bytes;
  interval_acked_bytes_ += size_bytes;
  if (ecn_ce) {
    stats_.bytes_ce_marked += size_bytes;
    interval_ce_bytes_ += size_bytes;
  }
  last_ack_time_ = now;

  const TimeNs rtt = now - data_sent_time;
  meter_.OnPacketAcked(now, rtt, size_bytes);
  if (tracer_ != nullptr) {
    tracer_->Record(now, TraceEventType::kAck, flow_id_, -1, seq, ToMillis(rtt),
                    static_cast<double>(inflight_bytes_));
  }

  if (running_) {
    AckEvent ev;
    ev.now = now;
    ev.rtt = rtt;
    ev.srtt = meter_.srtt();
    ev.min_rtt = meter_.min_rtt();
    ev.acked_bytes = size_bytes;
    ev.inflight_bytes = inflight_bytes_;
    ev.delivery_rate_bps = meter_.WindowedDeliveryRate(now);
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

TimeNs Sender::rto() const {
  if (meter_.srtt() == 0) {
    // No RTT sample yet: RFC 6298's conservative initial RTO, so long-RTT
    // paths (satellite: 800ms) are not written off before the first ACK.
    return Seconds(1.0);
  }
  return std::max(config_.min_rto, meter_.srtt() + 4 * meter_.rttvar());
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
  if (events_->now() < rto_deadline_) {
    ScheduleRtoEvent();
    return;
  }
  if (outstanding_.empty()) {
    return;  // nothing in flight; next send re-arms the timer via its ACK
  }
  if (events_->now() - last_ack_time_ < rto()) {
    ArmRtoTimer();
    return;
  }
  // Timeout: write off everything outstanding.
  uint64_t lost = 0;
  for (const Outstanding& o : outstanding_) {
    lost += o.size_bytes;
  }
  outstanding_.clear();
  inflight_bytes_ = 0;
  stats_.bytes_lost += lost;
  meter_.OnBytesLost(lost);
  if (tracer_ != nullptr) {
    tracer_->Record(events_->now(), TraceEventType::kRtoFire, flow_id_, -1, next_seq_,
                    static_cast<double>(lost), ToMillis(rto()));
  }

  LossEvent ev;
  ev.now = events_->now();
  ev.lost_bytes = lost;
  ev.is_timeout = true;
  ev.inflight_bytes = 0;
  cc_->OnLoss(ev);

  last_ack_time_ = events_->now();
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

  MtpReport report = meter_.BuildReport(now, config_.mtp, last_ack_time_, inflight_bytes_,
                                        outstanding_.size(), *cc_);
  // ECN accounting is patched on after BuildReport so the FlowMeter itself
  // stays identical between the simulator and the real UDP data plane.
  report.ecn_ce_bytes = interval_ce_bytes_;
  report.ecn_ce_ratio = interval_acked_bytes_ > 0
                            ? static_cast<double>(interval_ce_bytes_) /
                                  static_cast<double>(interval_acked_bytes_)
                            : 0.0;
  interval_ce_bytes_ = 0;
  interval_acked_bytes_ = 0;
  last_report_ = report;

  stats_.throughput_mbps.Add(now, ToMbps(report.thr_bps));
  if (meter_.interval_acked_packets() > 0) {
    stats_.rtt_ms.Add(now, meter_.interval_rtt_sum_ms() /
                               static_cast<double>(meter_.interval_acked_packets()));
  }
  stats_.cwnd_packets.Add(now, static_cast<double>(report.cwnd_bytes) / config_.mss);
  stats_.sending_mbps.Add(now, ToMbps(static_cast<double>(meter_.interval_sent_bytes()) * 8.0 /
                                      ToSeconds(config_.mtp)));

  meter_.ResetInterval();

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
