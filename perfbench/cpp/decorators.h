// Forwarding decorators the traced runs install through public extension
// points: a Policy (SchemeOptions::astraea_policy), a CongestionController
// (DumbbellScenario::AddFlowWithFactory) and a QueueDiscipline
// (DumbbellConfig::queue_factory). Each forwards every call unchanged and
// times the calls the per-layer metrics need. They never touch an RNG or the
// event schedule, so a traced run must produce the untraced run's outputs;
// the sim workloads check that through the run fingerprint.

#ifndef PERFBENCH_CPP_DECORATORS_H_
#define PERFBENCH_CPP_DECORATORS_H_

#include <memory>
#include <string>

#include "spans.h"
#include "src/core/astraea_controller.h"
#include "src/core/policy.h"
#include "src/sim/congestion_controller.h"
#include "src/sim/queue_disc.h"

namespace perfbench {

class TimedPolicy : public astraea::Policy {
 public:
  TimedPolicy(std::shared_ptr<const astraea::Policy> inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  double Act(const astraea::StateView& view) const override {
    ScopedSpan span(recorder_, Layer::kNnInfer);
    return inner_->Act(view);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const astraea::Policy> inner_;
  SpanRecorder* recorder_;
};

// Times OnAck, OnLoss and Astraea's OnMtpTick. Other calls (cwnd/pacing
// reads, other schemes' MTP ticks) are forwarded untimed and so count as
// simulator self time. For an Astraea flow it also counts the MTP ticks that
// reach the policy (the controller leaves slow start only in OnAck/OnLoss),
// which gives a decision count independent of the Policy decorator.
class TimedController : public astraea::CongestionController {
 public:
  TimedController(std::unique_ptr<astraea::CongestionController> inner, SpanRecorder* recorder,
                  uint64_t* decisions)
      : inner_(std::move(inner)),
        astraea_(dynamic_cast<astraea::AstraeaController*>(inner_.get())),
        recorder_(recorder),
        decisions_(decisions) {}

  void OnFlowStart(astraea::TimeNs now, uint32_t mss) override { inner_->OnFlowStart(now, mss); }
  void OnAck(const astraea::AckEvent& ev) override {
    ScopedSpan span(recorder_, Layer::kCcAck);
    inner_->OnAck(ev);
  }
  void OnLoss(const astraea::LossEvent& ev) override {
    ScopedSpan span(recorder_, Layer::kCcLoss);
    inner_->OnLoss(ev);
  }
  void OnMtpTick(const astraea::MtpReport& report) override {
    if (astraea_ == nullptr) {
      inner_->OnMtpTick(report);
      return;
    }
    if (!astraea_->in_slow_start()) {
      ++*decisions_;
    }
    ScopedSpan span(recorder_, Layer::kCoreMtp);
    inner_->OnMtpTick(report);
  }
  uint64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  std::optional<double> pacing_bps() const override { return inner_->pacing_bps(); }
  std::string name() const override { return inner_->name(); }
  bool EcnCapable() const override { return inner_->EcnCapable(); }
  void set_tracer(astraea::Tracer* tracer, int32_t flow_id) override {
    inner_->set_tracer(tracer, flow_id);
  }

 private:
  std::unique_ptr<astraea::CongestionController> inner_;
  astraea::AstraeaController* astraea_;  // inner_ when it is Astraea, else null
  SpanRecorder* recorder_;
  uint64_t* decisions_;
};

struct QueueCounts {
  uint64_t enqueues = 0;  // Enqueue calls
  uint64_t drops = 0;     // Enqueue calls the discipline refused
};

class TimedQueue : public astraea::QueueDiscipline {
 public:
  TimedQueue(std::unique_ptr<astraea::QueueDiscipline> inner, SpanRecorder* recorder,
             QueueCounts* counts)
      : inner_(std::move(inner)), recorder_(recorder), counts_(counts) {}

  bool Enqueue(astraea::PacketRef ref, astraea::TimeNs now) override {
    ScopedSpan span(recorder_, Layer::kQueue);
    const bool accepted = inner_->Enqueue(ref, now);
    ++counts_->enqueues;
    counts_->drops += accepted ? 0 : 1;
    return accepted;
  }
  std::optional<astraea::PacketRef> Dequeue(astraea::TimeNs now) override {
    ScopedSpan span(recorder_, Layer::kQueue);
    return inner_->Dequeue(now);
  }
  uint64_t queued_bytes() const override { return inner_->queued_bytes(); }
  size_t queued_packets() const override { return inner_->queued_packets(); }
  uint64_t dropped_bytes() const override { return inner_->dropped_bytes(); }
  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  uint64_t RecountQueuedBytes() const override { return inner_->RecountQueuedBytes(); }
  void set_pool(astraea::PacketPool* pool) override {
    QueueDiscipline::set_pool(pool);
    inner_->set_pool(pool);
  }
  void set_tracer(astraea::Tracer* tracer, int32_t link_id) override {
    QueueDiscipline::set_tracer(tracer, link_id);
    inner_->set_tracer(tracer, link_id);
  }

 private:
  std::unique_ptr<astraea::QueueDiscipline> inner_;
  SpanRecorder* recorder_;
  QueueCounts* counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_DECORATORS_H_
