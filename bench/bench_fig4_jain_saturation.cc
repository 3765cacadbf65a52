// Figure 4 — why the reward does not use the Jain index: Jain saturates as
// two flows' throughputs approach each other, while Astraea's R_fair stays
// linearly sensitive. Pure computation over the production reward block.

#include <cstdio>

#include "src/core/reward.h"
#include "src/eval/table.h"
#include "src/util/cli_flags.h"
#include "src/util/stats.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  cli::FlagSet().Parse(argc, argv);  // takes no argument
  PrintBenchHeader("Figure 4",
                   "Jain index vs (1 - R_fair) as the throughput gap of two flows sharing "
                   "100 Mbps varies");
  ConsoleTable table({"gap (Mbps)", "Jain index", "1 - R_fair", "dJain/d(gap)",
                      "dR_fair/d(gap)"});
  double prev_jain = 1.0;
  double prev_rfair = 0.0;
  for (int gap = 0; gap <= 100; gap += 10) {
    const double hi = 50.0 + gap / 2.0;
    const double lo = 50.0 - gap / 2.0;
    const std::vector<double> rates = {hi, lo};
    const double jain = JainIndex(rates);
    FlowRewardInput a;
    a.avg_thr_bps = Mbps(hi);
    FlowRewardInput b;
    b.avg_thr_bps = Mbps(lo);
    const std::vector<FlowRewardInput> flows = {a, b};
    const double rfair = RewardFairness(flows);
    table.AddRow({std::to_string(gap), ConsoleTable::Num(jain, 4),
                  ConsoleTable::Num(1.0 - rfair, 4),
                  gap == 0 ? "-" : ConsoleTable::Num((prev_jain - jain) / 10.0, 5),
                  gap == 0 ? "-" : ConsoleTable::Num((rfair - prev_rfair) / 10.0, 5)});
    prev_jain = jain;
    prev_rfair = rfair;
  }
  table.Print();
  std::printf("\npaper: gap 0->20 moves Jain by only ~0.04 while R_fair moves linearly —\n"
              "R_fair keeps gradient signal near the fair point where Jain has none\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
