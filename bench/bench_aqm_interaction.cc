// AQM interaction study (extension beyond the paper's figures, exercising the
// §3.2 "user-defined queuing policies" environment feature): how each scheme
// behaves when the bottleneck runs DropTail, RED or CoDel with a deep (4xBDP)
// buffer. AQMs bound the delay of buffer-filling schemes; delay-based schemes
// barely notice them.

#include <cstdio>

#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PrintBenchHeader("AQM interaction",
                   "Per-scheme throughput / delay under DropTail, RED and CoDel "
                   "(100 Mbps, 30 ms, 4xBDP buffer)");
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = Seconds(quick ? 15.0 : 30.0);

  for (const char* metric : {"utilization", "mean RTT (ms)"}) {
    std::printf("\n[%s]\n", metric);
    ConsoleTable table({"scheme", "droptail", "red", "codel"});
    for (const char* scheme : {"cubic", "bbr", "vegas", "copa", "vivace", "aurora", "orca",
                               "astraea"}) {
      std::vector<std::string> row = {scheme};
      for (const Qdisc aqm : {Qdisc::kDropTail, Qdisc::kRed, Qdisc::kCoDel}) {
        DumbbellConfig config;
        config.bandwidth = Mbps(100);
        config.base_rtt = Milliseconds(30);
        config.buffer_bdp = 4.0;
        config.queue_factory = MakeQueueFactory(
            aqm, BdpBufferBytes(config.bandwidth, config.base_rtt, config.buffer_bdp));
        DumbbellScenario scenario(config);
        scenario.AddFlow(scheme, 0);
        scenario.Run(until);
        const double value = std::string(metric) == "utilization"
                                 ? LinkUtilization(scenario.network(), 0, until / 3, until)
                                 : MeanRttMs(scenario.network(), until / 3, until);
        row.push_back(ConsoleTable::Num(value, std::string(metric) == "utilization" ? 3 : 1));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
  std::printf("\nexpected: CoDel pins every scheme's delay near the base RTT (cost: some "
              "throughput for the loss-insensitive schemes); Astraea/Copa/Vegas already sit "
              "near the floor under DropTail\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
