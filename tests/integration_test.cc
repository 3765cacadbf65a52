// End-to-end behavioural tests: the paper's headline claims, at test scale.

#include <gtest/gtest.h>

#include "src/eval/scenario.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

TEST(IntegrationTest, AstraeaHomogeneousFlowsNearOptimalFairness) {
  // Scaled-down §5.1.1: 3 flows, 100 Mbps / 30 ms / 1 BDP.
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 1.0;
  DumbbellScenario scenario(config);
  for (int i = 0; i < 3; ++i) {
    scenario.AddFlow("astraea", Seconds(8.0 * i));
  }
  scenario.Run(Seconds(45.0));

  const double jain =
      AverageJain(scenario.network(), Seconds(22.0), Seconds(45.0), Milliseconds(500));
  EXPECT_GT(jain, 0.95);
  const double util = LinkUtilization(scenario.network(), 0, Seconds(22.0), Seconds(45.0));
  EXPECT_GT(util, 0.9);
}

TEST(IntegrationTest, AstraeaConvergesFasterThanVivace) {
  auto convergence_of = [](const std::string& scheme) {
    DumbbellConfig config;
    config.bandwidth = Mbps(100);
    config.base_rtt = Milliseconds(30);
    config.buffer_bdp = 1.0;
    DumbbellScenario scenario(config);
    scenario.AddFlow(scheme, 0);
    scenario.AddFlow(scheme, Seconds(10.0));
    scenario.Run(Seconds(40.0));
    const ConvergenceMeasurement m = MeasureConvergence(
        scenario.network(), 1, Seconds(10.0), 50.0, 0.15, Seconds(1.0), Seconds(40.0));
    return m.convergence_time < 0 ? Seconds(30.0) : m.convergence_time;
  };
  const TimeNs astraea_time = convergence_of("astraea");
  const TimeNs vivace_time = convergence_of("vivace");
  EXPECT_LT(astraea_time, vivace_time);
}

TEST(IntegrationTest, AstraeaMoreStableThanCubic) {
  auto stability_of = [](const std::string& scheme) {
    DumbbellConfig config;
    config.bandwidth = Mbps(100);
    config.base_rtt = Milliseconds(30);
    config.buffer_bdp = 1.0;
    DumbbellScenario scenario(config);
    scenario.AddFlow(scheme, 0);
    scenario.AddFlow(scheme, 0);
    scenario.Run(Seconds(30.0));
    return scenario.network().flow_stats(1).throughput_mbps.StdDevOver(Seconds(10.0),
                                                                       Seconds(30.0));
  };
  EXPECT_LT(stability_of("astraea"), stability_of("cubic"));
}

TEST(IntegrationTest, AstraeaRttFairnessBeatsLossBasedTcp) {
  // Two flows, 30ms vs 150ms base RTT on a shallow buffer. Loss-based AIMD
  // throughput scales ~1/RTT, so NewReno splits very unevenly; Astraea's
  // backlog-target control is RTT-independent (Fig. 8's claim).
  auto jain_of = [](const std::string& scheme) {
    DumbbellConfig config;
    config.bandwidth = Mbps(100);
    config.base_rtt = Milliseconds(30);
    config.buffer_bdp = 0.5;
    DumbbellScenario scenario(config);
    scenario.AddFlow(scheme, 0, -1, 0);
    scenario.AddFlow(scheme, 0, -1, Milliseconds(120));
    scenario.Run(Seconds(40.0));
    const auto thrs = FlowMeanThroughputs(scenario.network(), Seconds(20.0), Seconds(40.0));
    return JainIndex(thrs);
  };
  const double astraea_jain = jain_of("astraea");
  EXPECT_GT(astraea_jain, jain_of("newreno"));
  EXPECT_GT(astraea_jain, 0.85);
}

TEST(IntegrationTest, AstraeaSurvivesRandomLossLikeBbr) {
  // Satellite-flavoured: random loss must not crater throughput (unlike
  // loss-based CUBIC). Scaled down from Fig. 20.
  auto util_of = [](const std::string& scheme) {
    DumbbellConfig config;
    config.bandwidth = Mbps(40);
    config.base_rtt = Milliseconds(100);
    config.buffer_bdp = 1.0;
    config.random_loss = 0.0074;
    DumbbellScenario scenario(config);
    scenario.AddFlow(scheme, 0);
    scenario.Run(Seconds(30.0));
    return LinkUtilization(scenario.network(), 0, Seconds(10.0), Seconds(30.0));
  };
  const double astraea_util = util_of("astraea");
  const double cubic_util = util_of("cubic");
  EXPECT_GT(astraea_util, 0.7);
  EXPECT_GT(astraea_util, cubic_util * 1.5);
}

TEST(IntegrationTest, MultiBottleneckSharesFollowMaxMin) {
  // Fig. 11 topology, small: FS-1 = 2 flows on link1 (100 Mbps);
  // FS-2 = 2 flows on link1+link2 (20 Mbps). Max-min: FS-2 flows get 10,
  // FS-1 flows get 40 each.
  Network net(1);
  SchemeOptions options;
  LinkConfig l1;
  l1.rate = Mbps(100);
  l1.propagation_delay = Milliseconds(15);
  l1.buffer_bytes = 2 * 375'000;
  net.AddLink(l1);
  LinkConfig l2;
  l2.rate = Mbps(20);
  l2.propagation_delay = Milliseconds(1);
  l2.buffer_bytes = 150'000;
  net.AddLink(l2);

  CcFactory factory = MakeSchemeFactory("astraea", &options);
  for (int i = 0; i < 2; ++i) {
    FlowSpec spec;
    spec.scheme = "astraea-fs1";
    spec.make_cc = factory;
    spec.link_path = {0};
    net.AddFlow(spec);
  }
  for (int i = 0; i < 2; ++i) {
    FlowSpec spec;
    spec.scheme = "astraea-fs2";
    spec.make_cc = factory;
    spec.link_path = {0, 1};
    net.AddFlow(spec);
  }
  net.Run(Seconds(40.0));

  const auto thr = FlowMeanThroughputs(net, Seconds(20.0), Seconds(40.0));
  EXPECT_NEAR(thr[2], 10.0, 3.0);
  EXPECT_NEAR(thr[3], 10.0, 3.0);
  EXPECT_NEAR(thr[0], 40.0, 8.0);
  EXPECT_NEAR(thr[1], 40.0, 8.0);
}

TEST(IntegrationTest, AstraeaIsReasonablyFriendlyToCubic) {
  // Fig. 14 shape: Astraea vs 1 CUBIC flow should be within an order of
  // magnitude of equal share (unlike Aurora/BBR's 10-60x).
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 1.0;
  DumbbellScenario scenario(config);
  scenario.AddFlow("astraea", 0);
  scenario.AddFlow("cubic", 0);
  scenario.Run(Seconds(40.0));
  const auto thr = FlowMeanThroughputs(scenario.network(), Seconds(10.0), Seconds(40.0));
  const double ratio = thr[0] / std::max(thr[1], 0.1);
  EXPECT_GT(ratio, 0.1);
  EXPECT_LT(ratio, 5.0);
}

TEST(IntegrationTest, AstraeaTracksTraceDrivenCapacity) {
  // Square-wave capacity: throughput must follow both levels (Fig. 13 shape).
  DumbbellConfig config;
  config.base_rtt = Milliseconds(40);
  config.buffer_bdp = 8.0;
  config.trace = std::make_shared<RateTrace>(
      MakeSquareWaveTrace(Seconds(60.0), Seconds(5.0), Mbps(20), Mbps(80)));
  config.bandwidth = config.trace->RateAt(0);
  DumbbellScenario scenario(config);
  scenario.AddFlow("astraea", 0);
  scenario.Run(Seconds(40.0));

  const Network& net = scenario.network();
  // High phase (t in [10,15)): ~80; low phase (t in [15,20)): ~20.
  const double high = net.flow_stats(0).throughput_mbps.MeanOver(Seconds(21.0), Seconds(25.0));
  const double low = net.flow_stats(0).throughput_mbps.MeanOver(Seconds(26.0), Seconds(30.0));
  EXPECT_GT(high, 50.0);
  EXPECT_LT(low, 30.0);
}

}  // namespace
}  // namespace astraea
