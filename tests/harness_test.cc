#include <gtest/gtest.h>

#include "bench/harness/metrics.h"
#include "bench/harness/scenario.h"
#include "bench/harness/table.h"

namespace astraea {
namespace {

TEST(DumbbellScenarioTest, BufferSizedInBdpMultiples) {
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 2.0;
  DumbbellScenario scenario(config);
  EXPECT_EQ(scenario.BufferBytes(), 2u * 375'000u);
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
