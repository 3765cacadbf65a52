// Figure 14 — TCP friendliness: one evaluated flow against an increasing
// number of CUBIC flows on 100 Mbps / 30 ms / 1 BDP. Reported value is the
// evaluated flow's throughput divided by the mean CUBIC throughput
// (1.0 = perfectly friendly).

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 14", "Throughput ratio to CUBIC (1.0 = optimal friendliness)");
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = Seconds(quick ? 30.0 : 60.0);
  const int reps = BenchReps(2);

  ConsoleTable table({"scheme", "vs 1 cubic", "vs 2 cubic", "vs 3 cubic", "vs 4 cubic"});
  for (const char* scheme :
       {"vegas", "bbr", "copa", "vivace", "aurora", "orca", "astraea"}) {
    std::vector<std::string> row = {scheme};
    for (int cubics = 1; cubics <= 4; ++cubics) {
      double ratio = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        DumbbellConfig config;
        config.bandwidth = Mbps(100);
        config.base_rtt = Milliseconds(30);
        config.buffer_bdp = 1.0;
        config.seed = 800 + static_cast<uint64_t>(rep);
        DumbbellScenario scenario(config);
        scenario.AddFlow(scheme, 0);
        for (int i = 0; i < cubics; ++i) {
          scenario.AddFlow("cubic", 0);
        }
        scenario.Run(until);
        const auto thr = FlowMeanThroughputs(scenario.network(), until / 3, until);
        double cubic_mean = 0.0;
        for (int i = 1; i <= cubics; ++i) {
          cubic_mean += thr[static_cast<size_t>(i)] / cubics;
        }
        ratio += thr[0] / std::max(cubic_mean, 0.1) / reps;
      }
      row.push_back(ConsoleTable::Num(ratio, 2));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\npaper: Aurora/BBR 10-60x (unfriendly); Vivace well below 1 (starved); "
              "Astraea acceptable, between the delay-based schemes and CUBIC\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
