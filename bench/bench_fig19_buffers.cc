// Figure 19 (Appendix B.1) — resilience to buffer size: throughput, latency
// inflation and loss on 100 Mbps / 30 ms with the buffer swept from a few
// hundredths of a BDP to 16 BDP.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("Figure 19",
                   "Varying buffer size (100 Mbps / 30 ms): normalized throughput, latency "
                   "inflation, loss");
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = Seconds(quick ? 15.0 : 30.0);

  const double buffers[] = {0.02, 0.1, 0.5, 1.0, 4.0, 16.0};
  const char* schemes[] = {"cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca",
                           "astraea"};

  for (const char* metric : {"throughput", "latency", "loss"}) {
    std::printf("\n[%s]\n", metric);
    ConsoleTable table({"scheme", "0.02xBDP", "0.1xBDP", "0.5xBDP", "1xBDP", "4xBDP",
                        "16xBDP"});
    for (const char* scheme : schemes) {
      std::vector<std::string> row = {scheme};
      for (double buffer : buffers) {
        DumbbellConfig config;
        config.bandwidth = Mbps(100);
        config.base_rtt = Milliseconds(30);
        config.buffer_bdp = buffer;
        DumbbellScenario scenario(config);
        scenario.AddFlow(scheme, 0);
        scenario.Run(until);
        const Network& net = scenario.network();
        double value = 0.0;
        if (std::string(metric) == "throughput") {
          value = LinkUtilization(net, 0, until / 3, until);
          row.push_back(ConsoleTable::Num(value, 2));
        } else if (std::string(metric) == "latency") {
          value = MeanRttMs(net, until / 3, until) / 30.0;  // normalized to base RTT
          row.push_back(ConsoleTable::Num(value, 2));
        } else {
          value = 100.0 * AggregateLossRatio(net);
          row.push_back(ConsoleTable::Num(value, 3));
        }
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
  std::printf("\npaper: Astraea needs only 0.1xBDP for near-full, near-lossless transfer; "
              "Aurora/BBR inflate latency with deep buffers; Orca lossy in shallow ones\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
