// Scenario-universe harness tests (src/eval/scenario_universe.h): the
// three workload families must be deterministic and worker-invariant under
// the shard protocol, incast completion semantics must hold, and the
// adversarial ingredients (churn, blasts) must actually hurt.

#include <gtest/gtest.h>

#include <string>

#include "src/eval/scenario_universe.h"
#include "src/eval/window_metrics.h"
#include "src/sim/invariants.h"

namespace astraea {
namespace {

std::string TracesDir() { return std::string(ASTRAEA_SOURCE_DIR) + "/traces"; }

ShardedUniverseConfig SmallConfig(UniverseFamily family) {
  ShardedUniverseConfig config;
  config.family = family;
  config.shards = 3;
  config.incast.fan_in = 6;
  config.incast.waves = 1;
  config.incast.request_bytes = 24 * 1024;
  config.trace_driven.trace_path = TracesDir() + "/cellular.trace";
  config.trace_driven.scheme = "cubic";
  config.trace_driven.duration = Seconds(1.0);
  config.adversarial.bandwidth = Mbps(20);
  config.adversarial.duration = Seconds(2.0);
  config.adversarial.blast_period = Seconds(1.0);
  config.adversarial.blast_on = Milliseconds(300);
  return config;
}

class UniverseWorkerInvarianceTest : public ::testing::TestWithParam<UniverseFamily> {};

// The family's sharded aggregate is bit-identical at 1 and N workers, with
// every invariant check fatal. This is the regression gate the bench and CI
// reassert; here it runs on each family's smallest config.
TEST_P(UniverseWorkerInvarianceTest, OneVsManyWorkersBitIdentical) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  ShardedUniverseConfig config = SmallConfig(GetParam());
  config.workers = 1;
  const ShardedRunResult serial = RunShardedUniverse(config);
  config.workers = 4;
  const ShardedRunResult parallel = RunShardedUniverse(config);

  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.events_executed, parallel.events_executed);
  EXPECT_EQ(serial.bytes_acked, parallel.bytes_acked);
  EXPECT_EQ(serial.bytes_lost, parallel.bytes_lost);
  ASSERT_EQ(serial.shards.size(), parallel.shards.size());
  for (size_t i = 0; i < serial.shards.size(); ++i) {
    EXPECT_EQ(serial.shards[i].fingerprint, parallel.shards[i].fingerprint) << "shard " << i;
  }
  // Shards are genuinely distinct scenarios (distinct derived seeds).
  EXPECT_NE(serial.shards[0].fingerprint, serial.shards[1].fingerprint);
  // And the whole thing is reproducible run to run.
  config.workers = 1;
  EXPECT_EQ(RunShardedUniverse(config).fingerprint, serial.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, UniverseWorkerInvarianceTest,
                         ::testing::Values(UniverseFamily::kIncast,
                                           UniverseFamily::kTraceDriven,
                                           UniverseFamily::kAdversarial),
                         [](const ::testing::TestParamInfo<UniverseFamily>& p) {
                           switch (p.param) {
                             case UniverseFamily::kIncast:
                               return "Incast";
                             case UniverseFamily::kTraceDriven:
                               return "TraceDriven";
                             case UniverseFamily::kAdversarial:
                               return "Adversarial";
                           }
                           return "Unknown";
                         });

TEST(IncastTest, RequestsCompleteWithBudgetedBytes) {
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  IncastConfig config;
  config.fan_in = 8;
  config.waves = 2;
  config.request_bytes = 32 * 1024;
  config.scheme = "cubic";
  config.ecn = false;
  config.seed = 21;
  const IncastResult result = RunIncast(config);
  EXPECT_EQ(result.requests, 16u);
  // The generous drain horizon lets every request finish on this config.
  EXPECT_EQ(result.completed, result.requests);
  EXPECT_GT(result.p95_fct_ms, 0.0);
  EXPECT_GE(result.max_fct_ms, result.p95_fct_ms);

  // Completion semantics: a completed flow sent exactly its budget, has
  // nothing in flight, and its completion time is inside the horizon.
  auto scenario = BuildIncast(config);
  scenario->Run(IncastHorizon(config));
  const Network& net = scenario->network();
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const FlowStats& stats = net.flow_stats(flow);
    ASSERT_GE(stats.completed_at, 0) << "flow " << flow;
    EXPECT_GE(stats.completed_at, net.flow_spec(flow).start);
    EXPECT_LE(stats.completed_at, IncastHorizon(config));
    EXPECT_GE(stats.bytes_sent, config.request_bytes);
    EXPECT_GE(stats.bytes_acked, config.request_bytes);
  }
}

TEST(IncastTest, MoreFanInMeansMoreCollapse) {
  IncastConfig small;
  small.fan_in = 4;
  small.waves = 1;
  small.scheme = "cubic";
  small.ecn = false;
  small.seed = 8;
  IncastConfig big = small;
  big.fan_in = 48;
  const IncastResult r_small = RunIncast(small);
  const IncastResult r_big = RunIncast(big);
  // Heavier fan-in on the same shallow buffer loses more and finishes later.
  EXPECT_GT(r_big.metrics.loss_ratio, r_small.metrics.loss_ratio);
  EXPECT_GT(r_big.p95_fct_ms, r_small.p95_fct_ms);
}

TEST(AdversarialTest, BlastInflatesForegroundDelay) {
  AdversarialConfig calm;
  calm.bandwidth = Mbps(30);
  calm.duration = Seconds(4.0);
  calm.churn_slots = 0;         // isolate the blaster's effect
  calm.blast_fraction = 0.0;
  calm.seed = 33;
  AdversarialConfig stormy = calm;
  stormy.blast_fraction = 0.8;
  stormy.blast_period = Seconds(2.0);
  stormy.blast_on = Seconds(1.0);

  const AdversarialResult without = RunAdversarial(calm);
  const AdversarialResult with = RunAdversarial(stormy);
  EXPECT_EQ(without.blast_share, 0.0);
  EXPECT_GT(with.blast_share, 0.0);
  EXPECT_GT(with.metrics.p95_delay_ms, without.metrics.p95_delay_ms);
  EXPECT_LT(with.metrics.goodput_mbps, without.metrics.goodput_mbps);
}

TEST(AdversarialTest, ChurnScheduleIsSeedDeterministic) {
  AdversarialConfig config;
  config.bandwidth = Mbps(20);
  config.duration = Seconds(2.0);
  config.seed = 17;
  auto a = BuildAdversarial(config);
  auto b = BuildAdversarial(config);
  ASSERT_EQ(a->network().flow_count(), b->network().flow_count());
  for (size_t i = 0; i < a->network().flow_count(); ++i) {
    const int id = static_cast<int>(i);
    EXPECT_EQ(a->network().flow_spec(id).start, b->network().flow_spec(id).start) << i;
    EXPECT_EQ(a->network().flow_spec(id).duration, b->network().flow_spec(id).duration) << i;
  }
  // A different seed reshuffles the churn schedule.
  config.seed = 18;
  auto c = BuildAdversarial(config);
  bool any_diff = c->network().flow_count() != a->network().flow_count();
  for (size_t i = 0; !any_diff && i < a->network().flow_count(); ++i) {
    const int id = static_cast<int>(i);
    any_diff = a->network().flow_spec(id).start != c->network().flow_spec(id).start;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TraceDrivenTest, InMemoryAndFileTraceBitIdentical) {
  // Loading the bundled capture through the file path and pre-building the
  // identical RateTrace in memory must produce fingerprint-identical runs —
  // the bit-identity contract of the --trace modes.
  TraceDrivenConfig by_path;
  by_path.trace_path = TracesDir() + "/cellular.trace";
  by_path.scheme = "cubic";
  by_path.duration = Seconds(1.0);
  by_path.seed = 6;
  TraceDrivenConfig by_trace = by_path;
  by_trace.trace_path.clear();
  by_trace.trace = std::make_shared<RateTrace>(
      ToRateTrace(LoadLinkRateTraceFile(TracesDir() + "/cellular.trace")));
  const TraceDrivenResult a = RunTraceDriven(by_path);
  const TraceDrivenResult b = RunTraceDriven(by_trace);
  EXPECT_EQ(a.metrics.fingerprint, b.metrics.fingerprint);
  EXPECT_GT(a.metrics.utilization, 0.0);
}

}  // namespace
}  // namespace astraea
