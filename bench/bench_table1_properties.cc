// Table 1 — qualitative comparison of learning-based CC algorithms.
//
// The paper's matrix (fairness / fast convergence / stability) is derived
// here from measurements in the §5.1.1 scenario rather than asserted:
//   fairness        = average Jain index > 0.9
//   fast convergence = mean convergence time < 2 s
//   stability       = post-convergence throughput stddev < 2 Mbps

#include <cstdio>

#include "bench/harness/experiments.h"
#include "src/eval/table.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Table 1",
                   "Property matrix for learning-based schemes, derived from the Fig. 6 "
                   "scenario (100 Mbps / 30 ms / 1 BDP, 3 staggered flows)");
  StaggeredConfig config = DefaultStaggeredConfig();
  if (QuickMode(argc, argv)) {
    config.start_interval = Seconds(15.0);
    config.flow_duration = Seconds(45.0);
    config.until = Seconds(75.0);
  }
  const int reps = BenchReps(2);

  // Scheme x rep points all run concurrently: the outer map fans out schemes
  // and each summary fans its reps across the same machine (workers = 1 inside
  // keeps the pool from oversubscribing).
  const std::vector<const char*> schemes = {"aurora", "vivace", "orca", "astraea"};
  const auto summaries = ParallelMap(schemes.size(), [&](size_t i) {
    return MeasureStaggeredConvergence(schemes[i], config, reps, 0.10, /*workers=*/1);
  });

  ConsoleTable table({"algorithm", "fairness", "fast convergence", "stability", "jain",
                      "conv (s)", "stddev (Mbps)"});
  for (size_t i = 0; i < schemes.size(); ++i) {
    const char* scheme = schemes[i];
    const SchemeConvergenceSummary& s = summaries[i];
    const bool fair = s.avg_jain > 0.9;
    const bool fast = s.avg_convergence_s >= 0 && s.avg_convergence_s < 2.0 &&
                      s.converged_events * 2 >= s.total_events;
    const bool stable = s.avg_stability_mbps >= 0 && s.avg_stability_mbps < 2.0;
    table.AddRow({scheme, fair ? "yes" : "no", fast ? "yes" : "no", stable ? "yes" : "no",
                  ConsoleTable::Num(s.avg_jain, 3),
                  s.avg_convergence_s < 0 ? "n/a" : ConsoleTable::Num(s.avg_convergence_s),
                  s.avg_stability_mbps < 0 ? "n/a" : ConsoleTable::Num(s.avg_stability_mbps)});
  }
  table.Print();
  std::printf("\npaper: Aurora none; Vivace fairness only; Orca fairness+fast; Astraea all\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
