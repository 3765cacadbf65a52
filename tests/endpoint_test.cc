#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/sim/network.h"

namespace astraea {
namespace {

// Fixed-window controller for exercising the sender machinery in isolation.
class FixedWindow : public CongestionController {
 public:
  explicit FixedWindow(uint64_t cwnd_bytes, std::optional<double> pacing = std::nullopt)
      : cwnd_(cwnd_bytes), pacing_(pacing) {}

  void OnAck(const AckEvent& ev) override {
    ++acks;
    last_ack = ev;
  }
  void OnLoss(const LossEvent& ev) override {
    ++losses;
    last_loss = ev;
  }
  void OnMtpTick(const MtpReport& report) override {
    ++ticks;
    last_report = report;
  }
  uint64_t cwnd_bytes() const override { return cwnd_; }
  std::optional<double> pacing_bps() const override { return pacing_; }
  std::string name() const override { return "fixed"; }

  uint64_t cwnd_;
  std::optional<double> pacing_;
  int acks = 0;
  int losses = 0;
  int ticks = 0;
  AckEvent last_ack;
  LossEvent last_loss;
  MtpReport last_report;
};

struct TestNet {
  explicit TestNet(LinkConfig link_config, uint64_t cwnd_bytes,
                   std::optional<double> pacing = std::nullopt) {
    net = std::make_unique<Network>(1);
    net->AddLink(link_config);
    FlowSpec spec;
    spec.scheme = "fixed";
    spec.make_cc = [this, cwnd_bytes, pacing] {
      auto cc = std::make_unique<FixedWindow>(cwnd_bytes, pacing);
      controller = cc.get();
      return cc;
    };
    net->AddFlow(spec);
  }

  std::unique_ptr<Network> net;
  FixedWindow* controller = nullptr;
};

LinkConfig DefaultLink() {
  LinkConfig config;
  config.rate = Mbps(100);
  config.propagation_delay = Milliseconds(15);  // 30ms base RTT
  config.buffer_bytes = 375'000;                // 1 BDP
  return config;
}

TEST(SenderTest, RttMeasurementMatchesBaseRtt) {
  TestNet t(DefaultLink(), 4 * 1500);  // tiny window: no queueing
  t.net->Run(Seconds(5.0));
  // min RTT = 2*15ms propagation + serialization (~0.12ms).
  const TimeNs min_rtt = t.net->sender(0).min_rtt();
  EXPECT_GE(min_rtt, Milliseconds(30));
  EXPECT_LE(min_rtt, Milliseconds(31));
}

TEST(SenderTest, ThroughputIsCwndOverRtt) {
  // 20 packets over ~30ms RTT: 20*1500*8/0.030 = 8 Mbps (well below capacity).
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(5.0));
  const double thr =
      t.net->flow_stats(0).throughput_mbps.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(thr, 8.0, 0.5);
}

TEST(SenderTest, SaturatesLinkWithLargeWindow) {
  // Window of 2 BDP: link-limited, standing queue of ~1 BDP.
  TestNet t(DefaultLink(), 2 * 375'000);
  t.net->Run(Seconds(5.0));
  const double thr =
      t.net->flow_stats(0).throughput_mbps.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(thr, 100.0, 2.0);
  // RTT should be about doubled by the standing queue.
  const double rtt = t.net->flow_stats(0).rtt_ms.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(rtt, 60.0, 5.0);
}

TEST(SenderTest, ConservationBytesSentEqualsAckedPlusLostPlusInflight) {
  LinkConfig link = DefaultLink();
  link.buffer_bytes = 30'000;  // shallow: force drops
  TestNet t(link, 3 * 375'000);
  t.net->Run(Seconds(5.0));
  const FlowStats& stats = t.net->flow_stats(0);
  EXPECT_EQ(stats.bytes_sent,
            stats.bytes_acked + stats.bytes_lost + t.net->sender(0).inflight_bytes());
}

TEST(SenderTest, GapLossDetectionFiresOnDrops) {
  LinkConfig link = DefaultLink();
  link.buffer_bytes = 30'000;  // shallow buffer: overdriving drops packets
  TestNet t(link, 3 * 375'000);
  t.net->Run(Seconds(5.0));
  EXPECT_GT(t.controller->losses, 0);
  EXPECT_FALSE(t.controller->last_loss.is_timeout);
  EXPECT_GT(t.net->flow_stats(0).bytes_lost, 0u);
}

TEST(SenderTest, WireLossIsDetectedWithoutQueueing) {
  LinkConfig link = DefaultLink();
  link.random_loss = 0.05;
  TestNet t(link, 20 * 1500);  // no congestion at all
  t.net->Run(Seconds(10.0));
  const FlowStats& stats = t.net->flow_stats(0);
  EXPECT_GT(stats.bytes_lost, 0u);
  const double loss_ratio =
      static_cast<double>(stats.bytes_lost) / (stats.bytes_acked + stats.bytes_lost);
  EXPECT_NEAR(loss_ratio, 0.05, 0.02);
}

TEST(SenderTest, RtoFiresWhenEverythingIsLost) {
  LinkConfig link = DefaultLink();
  link.random_loss = 1.0;  // black hole
  TestNet t(link, 10 * 1500);
  t.net->Run(Seconds(3.0));
  EXPECT_GT(t.controller->losses, 0);
  EXPECT_TRUE(t.controller->last_loss.is_timeout);
  // Everything written off was counted as lost.
  EXPECT_GT(t.net->flow_stats(0).bytes_lost, 0u);
}

// Regression for the zero-ACK report skew: a silent MTP used to pair
// thr_bps == 0 with avg_rtt == srtt — a (stalled-throughput, healthy-latency)
// feature row no real network produces. A stalled interval must be marked and
// its avg_rtt must grow with the silence.
TEST(FlowMeterTest, ZeroAckIntervalIsStalledWithLowerBoundRtt) {
  FlowMeter meter;
  FixedWindow cc(10 * 1500);

  // One healthy interval first: srtt converges to 20ms.
  meter.OnPacketAcked(Milliseconds(10), Milliseconds(20), 1500);
  const MtpReport healthy = meter.BuildReport(Milliseconds(30), Milliseconds(30),
                                              Milliseconds(10), 0, 0, cc);
  EXPECT_FALSE(healthy.stalled);
  EXPECT_EQ(healthy.avg_rtt, Milliseconds(20));
  EXPECT_GT(healthy.thr_bps, 0.0);
  meter.ResetInterval();

  // A silent interval: last ACK at t=10ms, report at t=1s. The silence bounds
  // every outstanding packet's RTT from below.
  meter.OnPacketSent(1500);
  const MtpReport stalled = meter.BuildReport(Seconds(1.0), Milliseconds(30),
                                              Milliseconds(10), 1500, 1, cc);
  EXPECT_TRUE(stalled.stalled);
  EXPECT_EQ(stalled.thr_bps, 0.0);
  EXPECT_EQ(stalled.avg_rtt, Seconds(1.0) - Milliseconds(10));
  EXPECT_GE(stalled.avg_rtt, stalled.srtt);
  meter.ResetInterval();

  // Deeper into the stall the bound keeps growing — the policy sees latency
  // inflating alongside the zeroed throughput, not a frozen healthy RTT.
  const MtpReport deeper = meter.BuildReport(Seconds(2.0), Milliseconds(30),
                                             Milliseconds(10), 1500, 1, cc);
  EXPECT_TRUE(deeper.stalled);
  EXPECT_GT(deeper.avg_rtt, stalled.avg_rtt);
}

// The transport core both data planes run, driven on its own: no simulator,
// no socket. Every sent byte stays acked, lost or in flight, and the
// controller's events carry the core's counters.
TEST(FlowTransportTest, ConservesBytesThroughAckPrefixAndRtoWriteOffs) {
  ByteCounters bytes;
  FlowTransport t(1000, &bytes);
  const auto conserved = [&] {
    return bytes.bytes_sent == bytes.bytes_acked + bytes.bytes_lost + t.inflight_bytes();
  };
  t.Start(0);
  for (uint64_t seq = 0; seq < 6; ++seq) {
    EXPECT_EQ(t.Send(Milliseconds(static_cast<int64_t>(seq))), seq);
    EXPECT_TRUE(conserved());
  }
  EXPECT_EQ(bytes.bytes_sent, 6000u);
  EXPECT_EQ(t.inflight_bytes(), 6000u);

  // Nothing below seq 0: no write-off, no event.
  EXPECT_FALSE(t.WriteOffBefore(Milliseconds(50), 0).has_value());

  // Proof that seqs 0 and 1 were dropped.
  const std::optional<LossEvent> gap = t.WriteOffBefore(Milliseconds(50), 2);
  ASSERT_TRUE(gap.has_value());
  EXPECT_EQ(gap->now, Milliseconds(50));
  EXPECT_EQ(gap->lost_bytes, 2000u);
  EXPECT_FALSE(gap->is_timeout);
  EXPECT_EQ(gap->inflight_bytes, 4000u);
  EXPECT_EQ(bytes.bytes_lost, 2000u);
  EXPECT_TRUE(conserved());

  // Seq 2 (sent at 2 ms) is ACKed at 50 ms: the first RTT sample.
  const AckEvent first = t.Ack(0, Milliseconds(50), Milliseconds(48));
  EXPECT_EQ(first.now, Milliseconds(50));
  EXPECT_EQ(first.rtt, Milliseconds(48));
  EXPECT_EQ(first.srtt, Milliseconds(48));
  EXPECT_EQ(first.min_rtt, Milliseconds(48));
  EXPECT_EQ(first.acked_bytes, 1000u);
  EXPECT_EQ(first.inflight_bytes, 3000u);
  EXPECT_EQ(first.delivery_rate_bps, 0.0);  // one delivery spans no time yet
  EXPECT_FALSE(first.ecn_ce);
  EXPECT_TRUE(conserved());

  // Seq 4 out of order (index 1 of 3, 4, 5), ACKed at 60 ms.
  ASSERT_EQ(t.outstanding()[1].seq, 4u);
  const AckEvent second = t.Ack(1, Milliseconds(60), Milliseconds(56));
  EXPECT_EQ(second.srtt, Milliseconds(49));  // (7 * 48 + 56) / 8
  EXPECT_EQ(second.min_rtt, Milliseconds(48));
  EXPECT_EQ(second.inflight_bytes, 2000u);
  EXPECT_DOUBLE_EQ(second.delivery_rate_bps, 2000 * 8 / 0.010);
  EXPECT_EQ(bytes.bytes_acked, 2000u);
  EXPECT_TRUE(conserved());

  // No ACK for an RTO (rttvar 20 ms: 49 + 80 ms, floored at 200 ms): the
  // whole window (seqs 3 and 5) is written off and the ACK clock restarts.
  EXPECT_EQ(t.RtoDeadline(), Milliseconds(260));
  const LossEvent rto = t.WriteOffAll(Milliseconds(260));
  EXPECT_EQ(rto.now, Milliseconds(260));
  EXPECT_EQ(rto.lost_bytes, 2000u);
  EXPECT_TRUE(rto.is_timeout);
  EXPECT_EQ(rto.inflight_bytes, 0u);
  EXPECT_TRUE(t.outstanding().empty());
  EXPECT_EQ(bytes.bytes_lost, 4000u);
  EXPECT_EQ(t.RtoDeadline(), Milliseconds(460));
  EXPECT_TRUE(conserved());

  // The MTP report sees the same interval, and closing it starts the next.
  const MtpReport report = t.CloseInterval(Milliseconds(270), Milliseconds(30), FixedWindow(0));
  EXPECT_EQ(report.acked_packets, 2u);
  EXPECT_EQ(report.inflight_bytes, 0u);
  EXPECT_DOUBLE_EQ(report.loss_ratio, 4000.0 / 6000.0);
  EXPECT_EQ(t.CloseInterval(Milliseconds(300), Milliseconds(30), FixedWindow(0)).acked_packets,
            0u);
}

TEST(FlowTransportTest, RtoIsOneSecondBeforeTheFirstSampleThenFlooredAt200Ms) {
  ByteCounters bytes;
  FlowTransport short_path(1500, &bytes);
  short_path.Start(Milliseconds(5));
  EXPECT_EQ(short_path.Rto(), Seconds(1.0));
  EXPECT_EQ(short_path.RtoDeadline(), Milliseconds(5) + Seconds(1.0));
  short_path.Send(Milliseconds(10));
  // srtt 10 ms, rttvar 5 ms: 30 ms, floored.
  short_path.Ack(0, Milliseconds(20), Milliseconds(10));
  EXPECT_EQ(short_path.Rto(), Milliseconds(200));
  EXPECT_EQ(short_path.RtoDeadline(), Milliseconds(220));

  ByteCounters long_bytes;
  FlowTransport long_path(1500, &long_bytes);
  long_path.Send(0);
  // srtt 100 ms, rttvar 50 ms: 300 ms, above the floor.
  long_path.Ack(0, Milliseconds(100), Milliseconds(100));
  EXPECT_EQ(long_path.Rto(), Milliseconds(300));
}

TEST(FlowTransportTest, WindowNeverFallsBelowTwoSegments) {
  ByteCounters bytes;
  FlowTransport t(1500, &bytes);
  int sent = 0;
  for (; sent < 10 && t.WindowOpen(/*cwnd_bytes=*/0); ++sent) {
    t.Send(0);
  }
  EXPECT_EQ(sent, 2);
  EXPECT_FALSE(t.WindowOpen(3000));
  EXPECT_TRUE(t.WindowOpen(4500));
  EXPECT_EQ(bytes.bytes_sent, bytes.bytes_acked + bytes.bytes_lost + t.inflight_bytes());
}

TEST(SenderTest, BlackHoleProducesStalledReports) {
  LinkConfig link = DefaultLink();
  link.random_loss = 1.0;  // black hole: no data ever delivered, no ACKs
  TestNet t(link, 10 * 1500);
  // Stop between RTO fires (they land on whole seconds and reset the silence
  // clock): the last MTP report at ~2.88s carries a ~0.88s silence bound.
  t.net->Run(Seconds(2.9));
  EXPECT_TRUE(t.controller->last_report.stalled);
  EXPECT_EQ(t.controller->last_report.acked_packets, 0u);
  EXPECT_EQ(t.controller->last_report.thr_bps, 0.0);
  EXPECT_GT(t.controller->last_report.avg_rtt, 0);
}

TEST(SenderTest, MtpReportsArriveAtConfiguredCadence) {
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(3.0));
  // 3s / 30ms = 100 ticks (+-1 for scheduling boundaries).
  EXPECT_NEAR(t.controller->ticks, 100, 2);
  EXPECT_EQ(t.controller->last_report.mtp, Milliseconds(30));
  EXPECT_GT(t.controller->last_report.thr_bps, 0.0);
  EXPECT_GT(t.controller->last_report.acked_packets, 0u);
}

TEST(SenderTest, PacedSenderRespectsPacingRate) {
  // Pacing at 20 Mbps with a huge window: throughput == pacing rate.
  TestNet t(DefaultLink(), 100 * 375'000, Mbps(20));
  t.net->Run(Seconds(5.0));
  const double thr =
      t.net->flow_stats(0).throughput_mbps.MeanOver(Seconds(1.0), Seconds(5.0));
  EXPECT_NEAR(thr, 20.0, 1.0);
}

TEST(SenderTest, StopHaltsTransmission) {
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(1.0));
  t.net->sender(0).Stop();
  const uint64_t sent_at_stop = t.net->flow_stats(0).bytes_sent;
  t.net->Run(Seconds(3.0));
  EXPECT_EQ(t.net->flow_stats(0).bytes_sent, sent_at_stop);
  EXPECT_EQ(t.net->sender(0).inflight_bytes(), 0u);  // drained
}

TEST(SenderTest, DeliveryRateEstimateTracksThroughput) {
  TestNet t(DefaultLink(), 2 * 375'000);
  t.net->Run(Seconds(5.0));
  EXPECT_NEAR(t.controller->last_ack.delivery_rate_bps / Mbps(100), 1.0, 0.1);
}

// A data path whose one-way delay and loss the test changes mid-flow: each
// packet reaches the receiver `delay` after it is sent, but no sooner than
// 1 ms after the packet ahead of it (the path stays FIFO and spreads the
// ACKs, so none lands exactly on an RTO deadline), or is dropped while
// `drop` is set.
class SteeredPath : public PacketSink {
 public:
  SteeredPath(EventQueue* events, PacketPool* pool, Receiver* receiver)
      : events_(events), pool_(pool), receiver_(receiver) {}

  void Accept(PacketRef ref) override {
    if (drop) {
      pool_->Release(ref);
      return;
    }
    last_arrival_ = std::max(last_arrival_ + Milliseconds(1), events_->now() + delay);
    events_->Schedule(last_arrival_, [this, ref] { receiver_->Accept(ref); });
  }

  TimeNs delay = Milliseconds(295);
  bool drop = false;

 private:
  EventQueue* events_;
  PacketPool* pool_;
  Receiver* receiver_;
  TimeNs last_arrival_ = 0;
};

// Records, at every ACK, the deadline the sender arms (ACK time + the RTO
// computed at that ACK), and the time of every timeout.
class RtoProbe : public FixedWindow {
 public:
  using FixedWindow::FixedWindow;

  void OnAck(const AckEvent& ev) override {
    FixedWindow::OnAck(ev);
    last_rto = sender->rto();
    const TimeNs deadline = ev.now + last_rto;
    deadline_moved_earlier = deadline_moved_earlier || deadline < last_deadline;
    last_deadline = deadline;
  }
  void OnLoss(const LossEvent& ev) override {
    FixedWindow::OnLoss(ev);
    if (ev.is_timeout) {
      timeouts.push_back(ev.now);
    }
  }

  const Sender* sender = nullptr;
  TimeNs last_rto = 0;
  TimeNs last_deadline = 0;
  bool deadline_moved_earlier = false;
  std::vector<TimeNs> timeouts;
};

struct RtoRig {
  RtoRig() {
    auto cc = std::make_unique<RtoProbe>(10 * 1500);
    probe = cc.get();
    sender = std::make_unique<Sender>(&events, &pool, /*flow_id=*/0, Route{&path}, std::move(cc),
                                      SenderConfig{});
    receiver.set_sender(sender.get());
    probe->sender = sender.get();
  }

  EventQueue events;
  PacketPool pool;
  Receiver receiver{&events, &pool, nullptr, /*ack_return_delay=*/Milliseconds(5)};
  SteeredPath path{&events, &pool, &receiver};
  RtoProbe* probe = nullptr;
  std::unique_ptr<Sender> sender;
};

// The timeout fires at exactly the last ACK + the RTO computed at that ACK,
// also when that RTO is shorter than the ones armed before it (srtt and
// rttvar fall mid-flow, so the pending RTO event lies beyond the new
// deadline), and after Stop()/Start() (the restart + the RTO armed then).
TEST(SenderTest, RtoFiresAtLastAckPlusTheRtoOfThatAck) {
  RtoRig rig;
  rig.sender->Start();
  rig.events.RunUntil(Seconds(2.0));  // 300 ms RTT: the RTO settles near 300 ms
  ASSERT_GT(rig.probe->acks, 0);
  EXPECT_TRUE(rig.probe->timeouts.empty());

  // The RTT falls to 10 ms. Once the packets queued on the long path drain
  // (from about 2.11 s) rttvar jumps, then the RTO shrinks ACK by ACK to
  // min_rto. Black-hole the path while it is still shrinking: the last ACK
  // lands at 2.127 s.
  rig.path.delay = Milliseconds(5);
  rig.probe->deadline_moved_earlier = false;
  rig.events.RunUntil(Seconds(2.1175));
  rig.path.drop = true;
  rig.events.RunUntil(Seconds(2.2));
  EXPECT_TRUE(rig.probe->deadline_moved_earlier);
  EXPECT_GT(rig.probe->last_rto, FlowTransport::kMinRto);
  const TimeNs deadline = rig.probe->last_deadline;
  rig.events.RunUntil(Seconds(3.0));
  ASSERT_FALSE(rig.probe->timeouts.empty());
  EXPECT_EQ(rig.probe->timeouts.front(), deadline);

  // Stopped, the flow never times out; restarted, it times out at the
  // restart + the RTO armed then, and again one RTO after that.
  rig.sender->Stop();
  const size_t fired = rig.probe->timeouts.size();
  rig.events.RunUntil(Seconds(5.0));
  EXPECT_EQ(rig.probe->timeouts.size(), fired);
  rig.sender->Start();
  const TimeNs first = rig.events.now() + rig.sender->rto();
  rig.events.RunUntil(first);
  ASSERT_EQ(rig.probe->timeouts.size(), fired + 1);
  EXPECT_EQ(rig.probe->timeouts.back(), first);
  const TimeNs second = first + rig.sender->rto();
  rig.events.RunUntil(second);
  ASSERT_EQ(rig.probe->timeouts.size(), fired + 2);
  EXPECT_EQ(rig.probe->timeouts.back(), second);
}

// One RTO event per sender: at most 10 x 60 packets are in flight, each with
// at most one pending event (service, propagation or ACK return), plus one
// MTP and one RTO event per flow. A stale RTO check left by every ACK of the
// last RTO would hold almost 2 000 slots here.
TEST(SenderTest, EventPoolStaysNearTheInFlightCount) {
  Network net(1);
  net.AddLink(DefaultLink());
  for (int i = 0; i < 10; ++i) {
    FlowSpec spec;
    spec.scheme = "fixed";
    spec.make_cc = [] { return std::make_unique<FixedWindow>(60 * 1500); };
    spec.start = Milliseconds(10) * i;
    net.AddFlow(spec);
  }
  net.Run(Seconds(3.0));
  EXPECT_GT(net.flow_stats(9).bytes_acked, 0u);
  EXPECT_LT(net.events().slot_capacity(), 1000u);
}

TEST(ReceiverTest, CountsReceivedBytes) {
  TestNet t(DefaultLink(), 20 * 1500);
  t.net->Run(Seconds(2.0));
  EXPECT_GT(t.net->flow_stats(0).bytes_acked, 0u);
}

// Regression: the receiver's delayed-ACK lambda used to capture a raw
// Sender*, so destroying a sender with ACKs still in flight (mid-simulation
// teardown) dereferenced freed memory when those events later fired. The
// lambda now holds a liveness handle; expired ACKs — and the sender's
// own pending MTP/RTO/pacing timers — must be silently discarded. Run under
// ASan to catch the use-after-free pre-fix.
TEST(ReceiverTest, AckAfterSenderDestroyedIsDiscarded) {
  EventQueue events;
  PacketPool pool;
  Receiver receiver(&events, &pool, nullptr, /*ack_return_delay=*/Milliseconds(15));
  SenderConfig config;
  auto sender = std::make_unique<Sender>(&events, &pool, /*flow_id=*/0, Route{&receiver},
                                         std::make_unique<FixedWindow>(20 * 1500), config);
  receiver.set_sender(sender.get());

  // Start and deliver a few packets: each Accept schedules a delayed ACK.
  sender->Start();
  events.RunUntil(Milliseconds(5));
  EXPECT_GT(receiver.received_bytes(), 0u);

  // Tear the sender down while ACKs (and its MTP/RTO timers) are pending.
  sender.reset();
  events.RunUntil(Seconds(2.0));  // fires every stale event; must not crash
  EXPECT_GT(receiver.received_bytes(), 0u);
}

}  // namespace
}  // namespace astraea
