#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/eval/cli_scenario.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"
#include "src/util/stats.h"

namespace astraea {
namespace {

TEST(DumbbellScenarioTest, BufferSizedInBdpMultiples) {
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 2.0;
  {
    DumbbellScenario scenario(config);
    EXPECT_EQ(scenario.BufferBytes(), 2u * 375'000u);
    EXPECT_EQ(scenario.bottleneck().queue().capacity_bytes(), 2u * 375'000u);
  }
  // A trace drives the service rate only: the buffer still follows
  // `bandwidth`, not the trace's first slot (80 Mbps here).
  config.trace = std::make_shared<RateTrace>(
      MakeSquareWaveTrace(Seconds(10.0), Seconds(1.0), Mbps(20), Mbps(80)));
  DumbbellScenario traced(config);
  EXPECT_EQ(traced.BufferBytes(), 2u * 375'000u);
  EXPECT_EQ(traced.bottleneck().queue().capacity_bytes(), 2u * 375'000u);
}

TEST(DumbbellScenarioTest, SchemeNamesResolve) {
  DumbbellConfig config;
  DumbbellScenario scenario(config);
  for (const char* name :
       {"newreno", "cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca", "remy"}) {
    EXPECT_GE(scenario.AddFlow(name, 0), 0) << name;
  }
}

TEST(MetricsTest, JainPerTimeslotSkipsSingleFlowSlots) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  DumbbellScenario scenario(config);
  scenario.AddFlow("cubic", 0);
  scenario.AddFlow("cubic", Seconds(5.0));
  scenario.Run(Seconds(10.0));

  // Slots before the second flow starts must be skipped entirely.
  const auto jains = JainPerTimeslot(scenario.network(), 0, Seconds(10.0), Seconds(1.0));
  EXPECT_LE(jains.size(), 5u);
  EXPECT_GE(jains.size(), 4u);
  for (double j : jains) {
    EXPECT_GE(j, 0.5);
    EXPECT_LE(j, 1.0);
  }
}

TEST(MetricsTest, UtilizationOfSaturatedLinkNearOne) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  DumbbellScenario scenario(config);
  scenario.AddFlow("cubic", 0);
  scenario.Run(Seconds(10.0));
  const double util = LinkUtilization(scenario.network(), 0, Seconds(2.0), Seconds(10.0));
  EXPECT_GT(util, 0.9);
  EXPECT_LE(util, 1.05);
}

TEST(MetricsTest, ConvergenceMeasurementFindsEntryTime) {
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  DumbbellScenario scenario(config);
  scenario.AddFlow("astraea", 0);
  scenario.AddFlow("astraea", Seconds(8.0));
  scenario.Run(Seconds(30.0));

  const ConvergenceMeasurement m =
      MeasureConvergence(scenario.network(), 1, Seconds(8.0), 50.0, 0.10, Seconds(1.0),
                         Seconds(30.0));
  ASSERT_GE(m.convergence_time, 0) << "flow never converged";
  EXPECT_LT(m.convergence_time, Seconds(10.0));
  EXPECT_LT(m.stability_mbps, 10.0);
}

TEST(MetricsTest, AggregateLossOnCleanDelayBasedFlowIsTiny) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  config.buffer_bdp = 2.0;
  DumbbellScenario scenario(config);
  scenario.AddFlow("vegas", 0);
  scenario.Run(Seconds(10.0));
  EXPECT_LT(AggregateLossRatio(scenario.network()), 0.001);
}

// The window metrics over a flow range read only the flows in it: one
// Astraea flow scored against a CUBIC cross flow on the same link.
TEST(MetricsTest, FlowRangeIgnoresCrossFlow) {
  DumbbellConfig config;
  config.bandwidth = Mbps(50);
  config.base_rtt = Milliseconds(20);
  DumbbellScenario scenario(config);
  scenario.AddFlow("astraea", 0);
  scenario.AddFlow("cubic", 0);
  const TimeNs until = Seconds(10.0);
  scenario.Run(until);
  const Network& net = scenario.network();
  const TimeNs begin = Seconds(2.0);
  const FlowRange astraea = {0, 1};

  // One flow in range: no slot has two active flows.
  EXPECT_EQ(AverageJain(net, begin, until, Seconds(1.0), astraea), 1.0);
  EXPECT_LT(AverageJain(net, begin, until, Seconds(1.0)), 1.0);

  const TimeSeries& thr = net.flow_stats(0).throughput_mbps;
  const double astraea_bits = thr.MeanOver(begin, until) * 1e6 * ToSeconds(until - begin);
  const double capacity_bits = config.bandwidth * ToSeconds(until - begin);
  EXPECT_DOUBLE_EQ(LinkUtilization(net, 0, begin, until, astraea), astraea_bits / capacity_bits);
  EXPECT_LT(LinkUtilization(net, 0, begin, until, astraea), LinkUtilization(net, 0, begin, until));

  std::vector<double> rtts;
  for (const auto& [t, rtt_ms] : net.flow_stats(0).rtt_ms.points()) {
    if (t >= begin && t < until) {
      rtts.push_back(rtt_ms);
    }
  }
  ASSERT_FALSE(rtts.empty());
  EXPECT_EQ(P95RttMs(net, begin, until, astraea), Percentile(rtts, 95.0));
  EXPECT_NE(P95RttMs(net, begin, until, astraea), P95RttMs(net, begin, until));
}

TEST(CliScenarioTest, FractionalRttRoundsToNanoseconds) {
  ScenarioCliOptions opts;
  opts.rtt_ms = 0.5;
  EXPECT_EQ(BuildDumbbellConfig(opts).base_rtt, 500'000);
  opts.rtt_ms = 2.99;
  EXPECT_EQ(BuildDumbbellConfig(opts).base_rtt, 2'990'000);
  opts.rtt_ms = 30.0;
  EXPECT_EQ(BuildDumbbellConfig(opts).base_rtt, Milliseconds(30));
}

// With --trace every queue discipline holds the scenario's one buffer size,
// sized from the trace's first slot.
TEST(CliScenarioTest, TraceQueueCapacityIsTheBufferSize) {
  ScenarioCliOptions opts;
  opts.trace_file = std::string(ASTRAEA_SOURCE_DIR) + "/traces/cellular.trace";
  for (const char* qdisc : {"droptail", "red", "codel"}) {
    opts.qdisc = qdisc;
    DumbbellScenario scenario(BuildDumbbellConfig(opts));
    EXPECT_EQ(scenario.BufferBytes(),
              BdpBufferBytes(scenario.config().trace->RateAt(0), Milliseconds(30), 1.0))
        << qdisc;
    EXPECT_EQ(scenario.bottleneck().queue().capacity_bytes(), scenario.BufferBytes()) << qdisc;
  }
}

TEST(ConsoleTableTest, NumFormatsPrecision) {
  EXPECT_EQ(ConsoleTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(ConsoleTable::Num(2.0, 0), "2");
}

TEST(BenchRepsTest, DefaultsWithoutEnv) {
  unsetenv("ASTRAEA_BENCH_REPS");
  EXPECT_EQ(BenchReps(3), 3);
  setenv("ASTRAEA_BENCH_REPS", "7", 1);
  EXPECT_EQ(BenchReps(3), 7);
  unsetenv("ASTRAEA_BENCH_REPS");
}

}  // namespace
}  // namespace astraea
