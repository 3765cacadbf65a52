// Figure 1 — motivation: (a) Aurora is unfair; (b) Vivace converges slowly.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

void PrintTimeline(const Network& net, TimeNs until, TimeNs step) {
  std::printf("%8s", "t(s)");
  for (size_t i = 0; i < net.flow_count(); ++i) {
    std::printf("  flow%zu(Mbps)", i);
  }
  std::printf("\n");
  for (TimeNs t = 0; t + step <= until; t += step) {
    std::printf("%8.0f", ToSeconds(t));
    for (size_t i = 0; i < net.flow_count(); ++i) {
      std::printf("  %11.2f",
                  net.flow_stats(static_cast<int>(i)).throughput_mbps.MeanOver(t, t + step));
    }
    std::printf("\n");
  }
}

int Main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);

  PrintBenchHeader("Figure 1a",
                   "Aurora is very unfair: 2 flows, 80 Mbps, 60 ms RTT, 4.8 MB buffer");
  {
    DumbbellConfig config;
    config.bandwidth = Mbps(80);
    config.base_rtt = Milliseconds(60);
    // 4.8 MB buffer = 8 BDP at 80 Mbps x 60 ms.
    config.buffer_bdp = 4.8e6 / static_cast<double>(BdpBytes(Mbps(80), Milliseconds(60)));
    DumbbellScenario scenario(config);
    const TimeNs until = quick ? Seconds(40.0) : Seconds(80.0);
    scenario.AddFlow("aurora", 0);
    scenario.AddFlow("aurora", until / 4);
    scenario.Run(until);
    PrintTimeline(scenario.network(), until, Seconds(quick ? 2.0 : 4.0));
    const auto thr = FlowMeanThroughputs(scenario.network(), until / 2, until);
    std::printf("second half: flow0 %.1f Mbps, flow1 %.1f Mbps (paper: incumbent takes all)\n\n",
                thr[0], thr[1]);
  }

  PrintBenchHeader("Figure 1b",
                   "Vivace converges slowly: 3 flows @40 s, 100 Mbps, 120 ms RTT, 1 BDP");
  {
    DumbbellConfig config;
    config.bandwidth = Mbps(100);
    config.base_rtt = Milliseconds(120);
    config.buffer_bdp = 1.0;
    DumbbellScenario scenario(config);
    const TimeNs interval = quick ? Seconds(20.0) : Seconds(40.0);
    const TimeNs duration = quick ? Seconds(60.0) : Seconds(120.0);
    for (int i = 0; i < 3; ++i) {
      scenario.AddFlow("vivace", interval * i, duration);
    }
    const TimeNs until = interval * 2 + duration;
    scenario.Run(until);
    PrintTimeline(scenario.network(), until, Seconds(quick ? 2.0 : 4.0));
    std::printf("avg Jain over 3-flow window: %.3f (paper: far from 1; fairness not reached "
                "before flows end)\n",
                AverageJain(scenario.network(), interval * 2, until, Milliseconds(500)));
  }
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
