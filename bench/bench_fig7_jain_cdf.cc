// Figure 7 — CDF of Jain indices computed at every 500 ms timeslot with at
// least two active flows, pooled over repeated runs of the Fig. 6 scenario.

#include <cstdio>

#include "bench/harness/experiments.h"
#include "src/eval/table.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 7", "CDF of per-timeslot Jain indices (Fig. 6 scenario)");
  StaggeredConfig config = DefaultStaggeredConfig();
  if (QuickMode(argc, argv)) {
    config.start_interval = Seconds(15.0);
    config.flow_duration = Seconds(45.0);
    config.until = Seconds(75.0);
  }
  const int reps = BenchReps(3);

  // Fan the full scheme x rep grid out across the pool, then regroup per
  // scheme in order — maximum parallelism with deterministic output.
  const std::vector<const char*> schemes = {"cubic", "vegas",  "bbr",    "copa",
                                            "vivace", "orca", "astraea"};
  const auto per_point =
      ParallelMap(schemes.size() * static_cast<size_t>(reps), [&](size_t point) {
        const size_t scheme_idx = point / static_cast<size_t>(reps);
        const int rep = static_cast<int>(point % static_cast<size_t>(reps));
        return CollectJainSamplesRep(schemes[scheme_idx], config, rep);
      });

  ConsoleTable table({"scheme", "p10", "p25", "p50", "p75", "p90", "mean", "frac>0.95"});
  for (size_t scheme_idx = 0; scheme_idx < schemes.size(); ++scheme_idx) {
    const char* scheme = schemes[scheme_idx];
    std::vector<double> samples;
    for (int rep = 0; rep < reps; ++rep) {
      const auto& part = per_point[scheme_idx * static_cast<size_t>(reps) +
                                   static_cast<size_t>(rep)];
      samples.insert(samples.end(), part.begin(), part.end());
    }
    EmpiricalCdf cdf(samples);
    double above = 0.0;
    for (double s : samples) {
      above += s > 0.95 ? 1.0 : 0.0;
    }
    table.AddRow({scheme, ConsoleTable::Num(cdf.Quantile(0.10), 3),
                  ConsoleTable::Num(cdf.Quantile(0.25), 3), ConsoleTable::Num(cdf.Quantile(0.50), 3),
                  ConsoleTable::Num(cdf.Quantile(0.75), 3), ConsoleTable::Num(cdf.Quantile(0.90), 3),
                  ConsoleTable::Num(Mean(samples), 3),
                  ConsoleTable::Num(samples.empty() ? 0.0 : above / samples.size(), 3)});
  }
  table.Print();
  std::printf("\npaper: Astraea's Jain CDF hugs 1.0 (average 0.991); others trail\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
