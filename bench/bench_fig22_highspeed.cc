// Figure 22 (Appendix B.4) — high-speed WAN: 10 Gbps bandwidth, 10 ms base
// RTT. Fast convergence to the link rate determines utilization here.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 22", "High-speed WAN: 10 Gbps, 10 ms base RTT");
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = Seconds(quick ? 4.0 : 8.0);

  ConsoleTable table({"scheme", "avg thr (Gbps)", "mean RTT (ms)", "loss %"});
  for (const char* scheme : {"cubic", "bbr", "vivace", "orca", "astraea"}) {
    DumbbellConfig config;
    config.bandwidth = Gbps(10);
    config.base_rtt = Milliseconds(10);
    config.buffer_bdp = 1.0;
    DumbbellScenario scenario(config);
    scenario.AddFlow(scheme, 0);
    scenario.Run(until);
    const Network& net = scenario.network();
    table.AddRow({scheme,
                  ConsoleTable::Num(FlowMeanThroughputs(net, until / 4, until)[0] / 1000.0, 2),
                  ConsoleTable::Num(MeanRttMs(net, until / 4, until), 1),
                  ConsoleTable::Num(100.0 * AggregateLossRatio(net), 3)});
  }
  table.Print();
  std::printf("\npaper: Astraea delivers higher throughput than Orca and Vivace with low "
              "latency (fast convergence to link bandwidth + latency penalty in reward)\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
