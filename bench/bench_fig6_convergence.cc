// Figure 6 — temporal convergence behaviour of all evaluated schemes:
// 3 flows starting at 40 s intervals (120 s each) on 100 Mbps / 30 ms / 1 BDP.
// Prints each scheme's per-flow throughput timeline plus a summary row.

#include <cstdio>
#include <vector>

#include "bench/harness/experiments.h"
#include "src/eval/table.h"
#include "src/util/thread_pool.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 6",
                   "Temporal convergence of CC schemes (3 staggered flows, 100 Mbps / 30 ms "
                   "/ 1 BDP)");
  StaggeredConfig config = DefaultStaggeredConfig();
  TimeNs step = Seconds(4.0);
  if (QuickMode(argc, argv)) {
    config.start_interval = Seconds(15.0);
    config.flow_duration = Seconds(45.0);
    config.until = Seconds(75.0);
    step = Seconds(2.0);
  }

  const std::vector<const char*> schemes = {"newreno", "cubic",  "vegas", "bbr",
                                            "copa",    "vivace", "orca",  "astraea"};
  // All scheme scenarios run concurrently on the pool; printing stays in
  // scheme order below.
  const auto scenarios = ParallelMap(schemes.size(), [&](size_t i) {
    return RunStaggeredScenario(schemes[i], config, 1);
  });

  ConsoleTable summary({"scheme", "avg Jain", "utilization", "mean RTT (ms)", "loss %"});
  for (size_t s = 0; s < schemes.size(); ++s) {
    const char* scheme = schemes[s];
    const Network& net = scenarios[s]->network();

    std::printf("\n--- %s ---\n%8s  f0(Mbps)  f1(Mbps)  f2(Mbps)\n", scheme, "t(s)");
    for (TimeNs t = 0; t + step <= config.until; t += step) {
      std::printf("%8.0f  %8.2f  %8.2f  %8.2f\n", ToSeconds(t),
                  net.flow_stats(0).throughput_mbps.MeanOver(t, t + step),
                  net.flow_stats(1).throughput_mbps.MeanOver(t, t + step),
                  net.flow_stats(2).throughput_mbps.MeanOver(t, t + step));
    }
    summary.AddRow({scheme,
                    ConsoleTable::Num(AverageJain(net, 0, config.until, Milliseconds(500)), 3),
                    ConsoleTable::Num(LinkUtilization(net, 0, Seconds(1.0), config.until), 3),
                    ConsoleTable::Num(MeanRttMs(net, 0, config.until), 1),
                    ConsoleTable::Num(100.0 * AggregateLossRatio(net), 2)});
  }
  std::printf("\n");
  summary.Print();
  std::printf("\npaper: TCPs respond fast but oscillate; Copa unstable; Vivace slow; Orca "
              "suboptimal; Astraea converges fast, fairly and stably\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
