// Figure 10 — fairness with many competing flows: 600 Mbps / 20 ms bottleneck
// with 10..50 concurrent Astraea flows (and a reduced-duration 100-flow probe
// standing in for the paper's TC-qdisc large-N extension).

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 10", "Astraea fairness vs number of competing flows (600 Mbps, 20 ms)");
  const bool quick = QuickMode(argc, argv);
  const int reps = BenchReps(2);

  ConsoleTable table({"flows", "avg Jain", "utilization", "mean RTT (ms)"});
  std::vector<int> counts = {10, 20, 30, 40, 50};
  if (!quick) {
    counts.push_back(100);
  }
  for (int n : counts) {
    const TimeNs until = Seconds(quick ? 15.0 : (n > 50 ? 20.0 : 30.0));
    double jain = 0.0;
    double util = 0.0;
    double rtt = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      DumbbellConfig config;
      config.bandwidth = Mbps(600);
      config.base_rtt = Milliseconds(20);
      config.buffer_bdp = 1.0;
      config.seed = 400 + static_cast<uint64_t>(rep);
      DumbbellScenario scenario(config);
      Rng stagger(500 + static_cast<uint64_t>(rep));
      for (int i = 0; i < n; ++i) {
        // Small random offsets so flows do not start in lockstep.
        scenario.AddFlow("astraea", Seconds(stagger.Uniform(0.0, 1.0)));
      }
      scenario.Run(until);
      jain += AverageJain(scenario.network(), until / 3, until, Seconds(1.0)) / reps;
      util += LinkUtilization(scenario.network(), 0, until / 3, until) / reps;
      rtt += MeanRttMs(scenario.network(), until / 3, until) / reps;
    }
    table.AddRow({std::to_string(n), ConsoleTable::Num(jain, 3), ConsoleTable::Num(util, 3),
                  ConsoleTable::Num(rtt, 1)});
  }
  table.Print();
  std::printf("\npaper: high Jain indices sustained from 10 to 50 (and up to 1000) flows\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
