// Figure 20 (Appendix B.2) — unreliable satellite link: 42 Mbps, 800 ms RTT,
// 1 BDP buffer, 0.74% stochastic loss. Loss-sensitive schemes collapse;
// loss-resilient ones keep throughput; delay-based ones keep delay.
// Pass --trace[=PATH] to replay a Mahimahi capture of the link's service
// rate (default: the bundled traces/satellite.trace with rain-fade dips)
// instead of the constant 42 Mbps.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

#ifndef ASTRAEA_SOURCE_DIR
#define ASTRAEA_SOURCE_DIR "."
#endif

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 20",
                   "Satellite link: 42 Mbps, 800 ms RTT, 1 BDP, 0.74% random loss");
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = Seconds(quick ? 50.0 : 100.0);
  const int reps = BenchReps(2);

  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = std::string(ASTRAEA_SOURCE_DIR) + "/traces/satellite.trace";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    }
  }
  std::shared_ptr<RateTrace> trace;
  if (!trace_path.empty()) {
    trace = std::make_shared<RateTrace>(LoadMahimahiTrace(trace_path));
    std::printf("replaying Mahimahi trace: %s\n\n", trace_path.c_str());
  }

  ConsoleTable table({"scheme", "avg thr (Mbps)", "norm delay (rtt/base)", "observed loss %"});
  for (const char* scheme :
       {"cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca", "astraea"}) {
    double thr = 0.0;
    double norm_delay = 0.0;
    double loss = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      DumbbellConfig config;
      config.bandwidth = trace != nullptr ? trace->RateAt(0) : Mbps(42);
      config.base_rtt = Milliseconds(800);
      config.buffer_bdp = 1.0;
      config.random_loss = 0.0074;
      config.trace = trace;
      config.seed = 1000 + static_cast<uint64_t>(rep);
      DumbbellScenario scenario(config);
      scenario.AddFlow(scheme, 0);
      scenario.Run(until);
      thr += FlowMeanThroughputs(scenario.network(), until / 4, until)[0] / reps;
      norm_delay += MeanRttMs(scenario.network(), until / 4, until) / 800.0 / reps;
      loss += 100.0 * AggregateLossRatio(scenario.network()) / reps;
    }
    table.AddRow({scheme, ConsoleTable::Num(thr, 1), ConsoleTable::Num(norm_delay, 2),
                  ConsoleTable::Num(loss, 2)});
  }
  table.Print();
  std::printf("\npaper: Cubic/Vegas collapse (respond to loss); Vivace/Copa/Aurora high "
              "throughput; BBR high but oscillating; Astraea moderate throughput with low "
              "delay\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
