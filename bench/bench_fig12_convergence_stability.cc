// Figure 12 — convergence time vs stability scatter: after every flow event
// in the §5.1.1 scenario, the time until the affected flow holds within +-10%
// of its fair share, and the post-convergence throughput stddev.

#include <cstdio>

#include "bench/harness/experiments.h"
#include "src/eval/table.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 12", "Convergence time vs stability (Fig. 6 scenario)");
  StaggeredConfig config = DefaultStaggeredConfig();
  if (QuickMode(argc, argv)) {
    config.start_interval = Seconds(15.0);
    config.flow_duration = Seconds(45.0);
    config.until = Seconds(75.0);
  }
  const int reps = BenchReps(2);

  ConsoleTable table({"scheme", "conv time (s)", "stability (Mbps)", "converged/total",
                      "paper conv", "paper stab"});
  struct PaperRef {
    const char* scheme;
    const char* conv;
    const char* stab;
  };
  const PaperRef refs[] = {
      {"cubic", "-", "-"},       {"vegas", "-", "-"},   {"bbr", "-", "-"},
      {"copa", "~0.4", "-"},     {"vivace", "3.438", "6.016"},
      {"orca", "1.497", "5.519"}, {"astraea", "0.408", "2.124"},
  };
  for (const PaperRef& ref : refs) {
    const SchemeConvergenceSummary s = MeasureStaggeredConvergence(ref.scheme, config, reps);
    table.AddRow({ref.scheme,
                  s.avg_convergence_s < 0 ? "never" : ConsoleTable::Num(s.avg_convergence_s, 2),
                  s.avg_stability_mbps < 0 ? "n/a" : ConsoleTable::Num(s.avg_stability_mbps, 2),
                  std::to_string(s.converged_events) + "/" + std::to_string(s.total_events),
                  ref.conv, ref.stab});
  }
  table.Print();
  std::printf("\npaper: Astraea fastest (0.408s, comparable to Copa) and most stable "
              "(2.124 Mbps); Vivace slowest; Orca in between\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
