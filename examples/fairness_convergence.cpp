// Fairness & convergence demo: the paper's headline scenario. Three Astraea
// flows join a 100 Mbps / 30 ms bottleneck 10 s apart; watch the bandwidth
// re-divide fairly at each arrival, then print the convergence metrics.
// Compare with `./fairness_convergence cubic` (or any registered scheme).

#include <cstdio>
#include <string>

#include "src/eval/scenario.h"
#include "src/eval/window_metrics.h"

int main(int argc, char** argv) {
  using namespace astraea;
  const std::string scheme = argc > 1 ? argv[1] : "astraea";

  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 1.0;
  DumbbellScenario scenario(config);
  for (int i = 0; i < 3; ++i) {
    scenario.AddFlow(scheme, Seconds(10.0 * i));
  }
  const TimeNs until = Seconds(45.0);
  scenario.Run(until);

  const Network& net = scenario.network();
  std::printf("scheme: %s\n\n  t(s)  flow0  flow1  flow2   (Mbps)\n", scheme.c_str());
  for (TimeNs t = 0; t + Seconds(1.0) <= until; t += Seconds(1.0)) {
    std::printf("%6.0f  %5.1f  %5.1f  %5.1f\n", ToSeconds(t),
                net.flow_stats(0).throughput_mbps.MeanOver(t, t + Seconds(1.0)),
                net.flow_stats(1).throughput_mbps.MeanOver(t, t + Seconds(1.0)),
                net.flow_stats(2).throughput_mbps.MeanOver(t, t + Seconds(1.0)));
  }

  // Convergence of the last arrival toward its 33.3 Mbps fair share.
  const ConvergenceMeasurement m =
      MeasureConvergence(net, 2, Seconds(20.0), 100.0 / 3.0, 0.10, Seconds(1.0), until);
  std::printf("\navg Jain index (3-flow window): %.3f\n",
              AverageJain(net, Seconds(20.0), until, Milliseconds(500)));
  std::printf("flow2 convergence to fair share: %s\n",
              m.convergence_time < 0 ? "did not converge"
                                     : FormatTime(m.convergence_time).c_str());
  std::printf("flow2 post-convergence stddev:   %.2f Mbps\n", m.stability_mbps);
  std::printf("link utilization:                %.3f\n",
              LinkUtilization(net, 0, Seconds(20.0), until));
  return 0;
}
