// Figure 9 — Astraea's fairness across diverse network scenarios: bandwidth
// 20..200 Mbps x base RTT 30..200 ms (wider than the training range), random
// 2..8 flows starting every 20 s.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"
#include "src/util/rng.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 9", "Astraea's average Jain index across bandwidth x RTT grid");
  const bool quick = QuickMode(argc, argv);
  const int reps = BenchReps(2);

  const double bws[] = {20, 50, 100, 150, 200};
  const int rtts[] = {30, 50, 100, 150, 200};

  ConsoleTable table({"bw\\rtt", "30ms", "50ms", "100ms", "150ms", "200ms"});
  Rng rng(7);
  for (double bw : bws) {
    std::vector<std::string> row = {ConsoleTable::Num(bw, 0) + "Mbps"};
    for (int rtt : rtts) {
      double jain_acc = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const int flows = quick ? 3 : static_cast<int>(rng.UniformInt(2, 8));
        const TimeNs interval = quick ? Seconds(8.0) : Seconds(20.0);
        // Flows staggered every 20s; total long enough for all to compete.
        const TimeNs until = interval * flows + Seconds(quick ? 15.0 : 40.0);
        DumbbellConfig config;
        config.bandwidth = Mbps(bw);
        config.base_rtt = Milliseconds(rtt);
        config.buffer_bdp = 1.0;
        config.seed = 300 + static_cast<uint64_t>(rep);
        DumbbellScenario scenario(config);
        for (int i = 0; i < flows; ++i) {
          scenario.AddFlow("astraea", interval * i);
        }
        scenario.Run(until);
        jain_acc +=
            AverageJain(scenario.network(), interval * (flows - 1), until, Milliseconds(500));
      }
      row.push_back(ConsoleTable::Num(jain_acc / reps, 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\npaper: Jain > 0.95 across the grid; mild degradation at very large RTTs and "
              "in small-BDP corners\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
