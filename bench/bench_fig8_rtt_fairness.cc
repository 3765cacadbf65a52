// Figure 8 — RTT fairness: 5 long-running flows with base RTTs evenly spaced
// between 40 ms and 200 ms share a 100 Mbps link (1 BDP buffer sized at the
// 200 ms RTT). Optimal sharing gives every flow 20 Mbps.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 8",
                   "RTT fairness: 5 flows, base RTTs 40..200 ms, 100 Mbps (20 Mbps each is "
                   "optimal)");
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = quick ? Seconds(40.0) : Seconds(90.0);
  const int reps = BenchReps(2);

  ConsoleTable table({"scheme", "40ms", "80ms", "120ms", "160ms", "200ms", "Jain"});
  for (const char* scheme :
       {"cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca", "astraea"}) {
    std::vector<double> avg(5, 0.0);
    double jain = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      DumbbellConfig config;
      config.bandwidth = Mbps(100);
      config.base_rtt = Milliseconds(40);
      // 1 BDP buffer computed with the 200 ms RTT (paper setup).
      config.buffer_bdp = 200.0 / 40.0;
      config.seed = 100 + static_cast<uint64_t>(rep);
      DumbbellScenario scenario(config);
      for (int i = 0; i < 5; ++i) {
        // Flow i's base RTT: 40 + 40*i ms (extra delay on the return path).
        scenario.AddFlow(scheme, 0, -1, Milliseconds(40) * i);
      }
      scenario.Run(until);
      const auto thr = FlowMeanThroughputs(scenario.network(), until / 3, until);
      for (int i = 0; i < 5; ++i) {
        avg[static_cast<size_t>(i)] += thr[static_cast<size_t>(i)] / reps;
      }
      jain += JainIndex(thr) / reps;
    }
    table.AddRow({scheme, ConsoleTable::Num(avg[0], 1), ConsoleTable::Num(avg[1], 1),
                  ConsoleTable::Num(avg[2], 1), ConsoleTable::Num(avg[3], 1),
                  ConsoleTable::Num(avg[4], 1), ConsoleTable::Num(jain, 3)});
  }
  table.Print();
  std::printf("\npaper: Astraea comparable to Copa/Vivace, better than Aurora/Orca/TCPs; "
              "mild small-RTT advantage remains\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
