// Cellular adaptation demo: an Astraea flow rides an LTE-like trace-driven
// link whose capacity swings at millisecond scale (the Fig. 13 workload).
// Prints capacity vs achieved rate side by side, plus latency inflation.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/window_metrics.h"

int main(int argc, char** argv) {
  using namespace astraea;
  const std::string scheme = argc > 1 ? argv[1] : "astraea";

  const TimeNs until = Seconds(30.0);
  Rng trace_rng(5);
  auto trace = std::make_shared<RateTrace>(
      MakeLteLikeTrace(until, Milliseconds(20), Mbps(1), Mbps(60), &trace_rng));

  DumbbellConfig config;
  config.bandwidth = trace->RateAt(0);  // sizes the buffer
  config.base_rtt = Milliseconds(40);
  config.buffer_bdp = 20.0;  // deep cellular buffer
  config.trace = trace;
  DumbbellScenario scenario(config);
  scenario.AddFlow(scheme, 0);
  scenario.Run(until);

  const Network& net = scenario.network();
  std::printf("scheme: %s\n\n  t(s)  capacity  achieved  rtt(ms)\n", scheme.c_str());
  for (TimeNs t = 0; t + Seconds(1.0) <= until; t += Seconds(1.0)) {
    std::printf("%6.0f  %8.1f  %8.1f  %7.1f\n", ToSeconds(t),
                trace->CapacityBits(t, t + Seconds(1.0)) / 1e6,
                net.flow_stats(0).throughput_mbps.MeanOver(t, t + Seconds(1.0)),
                net.flow_stats(0).rtt_ms.MeanOver(t, t + Seconds(1.0)));
  }
  const double achieved = net.flow_stats(0).throughput_mbps.MeanOver(Seconds(2.0), until);
  const double capacity = trace->CapacityBits(Seconds(2.0), until) / ToSeconds(until - Seconds(2.0)) / 1e6;
  std::printf("\nmean capacity %.1f Mbps, achieved %.1f Mbps (%.0f%%), p95 RTT %.0f ms "
              "(base 40)\n",
              capacity, achieved, 100.0 * achieved / capacity,
              P95RttMs(net, Seconds(2.0), until));
  return 0;
}
