// Figures 13 & 21 — cellular (LTE-like) networks: a trace-driven link whose
// capacity swings drastically at millisecond scale, 40 ms RTT, deep buffer.
// Fig. 13 is the Astraea-vs-Vivace adaptation timeline; Fig. 21 the
// throughput vs normalized-delay summary for all schemes.
//
// Substitution note (DESIGN.md): the Verizon LTE trace is replaced by a
// synthetic LTE-like trace with the same qualitative dynamics. Pass
// --trace[=PATH] to replay a Mahimahi capture instead (default: the bundled
// traces/cellular.trace).

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
  const bool quick = QuickMode(argc, argv);
  const TimeNs until = Seconds(quick ? 25.0 : 60.0);
  const int reps = BenchReps(2);

  // --trace[=PATH]: replay a Mahimahi capture instead of the synthetic trace.
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = std::string(ASTRAEA_SOURCE_DIR) + "/traces/cellular.trace";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    }
  }
  auto cell_trace = [&](TimeNs duration, uint64_t seed) {
    if (!trace_path.empty()) {
      return std::make_shared<RateTrace>(LoadMahimahiTrace(trace_path));
    }
    Rng rng(seed);
    return std::make_shared<RateTrace>(
        MakeLteLikeTrace(duration, Milliseconds(20), Mbps(1), Mbps(60), &rng));
  };
  if (!trace_path.empty()) {
    std::printf("replaying Mahimahi trace: %s\n\n", trace_path.c_str());
  }

  PrintBenchHeader("Figure 13", "Adaptation to rapidly changing cellular capacity "
                                "(Astraea vs Vivace timeline)");
  {
    auto trace = cell_trace(until, 99);
    std::printf("%7s  %12s  %14s  %13s\n", "t(s)", "capacity(Mbps)", "astraea(Mbps)",
                "vivace(Mbps)");
    auto run = [&](const std::string& scheme) {
      DumbbellConfig config;
      config.bandwidth = trace->RateAt(0);  // sizes the buffer
      config.base_rtt = Milliseconds(40);
      config.buffer_bdp = 20.0;  // very deep buffer (paper setup)
      config.trace = trace;
      auto scenario = std::make_unique<DumbbellScenario>(config);
      scenario->AddFlow(scheme, 0);
      scenario->Run(until);
      return scenario;
    };
    auto astraea_run = run("astraea");
    auto vivace_run = run("vivace");
    for (TimeNs t = 0; t + Seconds(1.0) <= until; t += Seconds(1.0)) {
      const double cap = trace->CapacityBits(t, t + Seconds(1.0)) / 1e6;
      std::printf("%7.0f  %12.1f  %14.2f  %13.2f\n", ToSeconds(t), cap,
                  astraea_run->network().flow_stats(0).throughput_mbps.MeanOver(t, t + Seconds(1.0)),
                  vivace_run->network().flow_stats(0).throughput_mbps.MeanOver(t, t + Seconds(1.0)));
    }
    std::printf("\npaper: Astraea tracks the capacity swings; Vivace lags and inflates "
                "latency\n\n");
  }

  PrintBenchHeader("Figure 21", "Cellular summary: throughput vs delay normalized to base RTT");
  ConsoleTable table({"scheme", "avg thr (Mbps)", "norm delay (p95 rtt / base)", "loss %"});
  for (const char* scheme :
       {"cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca", "astraea"}) {
    double thr = 0.0;
    double norm_delay = 0.0;
    double loss = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      DumbbellConfig config;
      config.base_rtt = Milliseconds(40);
      config.buffer_bdp = 20.0;
      config.trace = cell_trace(until, 200 + static_cast<uint64_t>(rep));
      config.bandwidth = config.trace->RateAt(0);
      config.seed = 77 + static_cast<uint64_t>(rep);
      DumbbellScenario scenario(config);
      scenario.AddFlow(scheme, 0);
      scenario.Run(until);
      thr += FlowMeanThroughputs(scenario.network(), Seconds(2.0), until)[0] / reps;
      norm_delay += P95RttMs(scenario.network(), Seconds(2.0), until) / 40.0 / reps;
      loss += 100.0 * AggregateLossRatio(scenario.network()) / reps;
    }
    table.AddRow({scheme, ConsoleTable::Num(thr, 1), ConsoleTable::Num(norm_delay, 2),
                  ConsoleTable::Num(loss, 2)});
  }
  table.Print();
  std::printf("\npaper: Astraea holds high throughput with low latency inflation; "
              "Aurora/Vivace pay heavy delay; Copa/Vegas sacrifice utilization\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
