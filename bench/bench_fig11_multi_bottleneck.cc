// Figure 11 — max-min fairness in a multi-bottleneck topology: flow set 1
// (FS-1, varying size) uses only Link 1 (100 Mbps); flow set 2 (FS-2, two
// flows) traverses Link 1 then Link 2 (20 Mbps). Both sets start together.
//
// Ideal max-min: while |FS-1| < 8, FS-2 is bottlenecked at Link 2 (10 Mbps
// each) and FS-1 splits the remaining 80 Mbps; beyond that Link 1 is the
// common bottleneck and everyone gets 100/(|FS-1|+2).

#include <cstdio>

#include "src/core/schemes.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 11", "Fairness in the two-bottleneck topology (Link1 100, Link2 20 Mbps)");
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = Seconds(quick ? 25.0 : 60.0);
  const int reps = BenchReps(2);

  ConsoleTable table({"|FS-1|", "FS-1 avg (Mbps)", "ideal", "FS-2 avg (Mbps)", "ideal"});
  for (int fs1 : {1, 2, 4, 6, 8, 12, 16}) {
    double fs1_avg = 0.0;
    double fs2_avg = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Network net(600 + static_cast<uint64_t>(rep));
      SchemeOptions options;
      LinkConfig l1;
      l1.name = "link1";
      l1.rate = Mbps(100);
      l1.propagation_delay = Milliseconds(15);
      l1.buffer_bytes = 2 * BdpBytes(Mbps(100), Milliseconds(30));
      net.AddLink(l1);
      LinkConfig l2;
      l2.name = "link2";
      l2.rate = Mbps(20);
      l2.propagation_delay = Milliseconds(1);
      l2.buffer_bytes = 2 * BdpBytes(Mbps(20), Milliseconds(32));
      net.AddLink(l2);

      CcFactory factory = MakeSchemeFactory("astraea", &options);
      for (int i = 0; i < fs1; ++i) {
        FlowSpec spec;
        spec.scheme = "fs1";
        spec.make_cc = factory;
        spec.link_path = {0};
        net.AddFlow(spec);
      }
      for (int i = 0; i < 2; ++i) {
        FlowSpec spec;
        spec.scheme = "fs2";
        spec.make_cc = factory;
        spec.link_path = {0, 1};
        net.AddFlow(spec);
      }
      net.Run(until);
      const auto thr = FlowMeanThroughputs(net, until / 3, until);
      for (int i = 0; i < fs1; ++i) {
        fs1_avg += thr[static_cast<size_t>(i)] / fs1 / reps;
      }
      fs2_avg += (thr[static_cast<size_t>(fs1)] + thr[static_cast<size_t>(fs1) + 1]) / 2 / reps;
    }
    // Max-min ideals.
    const double fs2_ideal = fs1 < 8 ? 10.0 : 100.0 / (fs1 + 2);
    const double fs1_ideal = fs1 < 8 ? 80.0 / fs1 : 100.0 / (fs1 + 2);
    table.AddRow({std::to_string(fs1), ConsoleTable::Num(fs1_avg, 1),
                  ConsoleTable::Num(fs1_ideal, 1), ConsoleTable::Num(fs2_avg, 1),
                  ConsoleTable::Num(fs2_ideal, 1)});
  }
  table.Print();
  std::printf("\npaper: both sets closely follow the max-min ideal, with the crossover at "
              "|FS-1| = 8\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
