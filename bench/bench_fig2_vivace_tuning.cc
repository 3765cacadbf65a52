// Figure 2 — tuning Vivace's conversion factor theta0 trades responsiveness
// for stability: the enlarged theta0 converges quickly at 120 ms RTT (2a) but
// oscillates badly at 12 ms RTT (2b).

#include <cstdio>

#include "bench/harness/experiments.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

struct Outcome {
  double jain;
  double stddev_mbps;  // mean per-flow post-warmup throughput stddev
  double util;
  double conv_s;       // convergence time of the last arrival (-1: never)
};

Outcome RunVivace(double theta0, TimeNs rtt, TimeNs interval, TimeNs until, int flows) {
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = rtt;
  config.buffer_bdp = 1.0;
  DumbbellScenario scenario(config);
  VivaceConfig& vivace = scenario.scheme_options().vivace;
  vivace.theta0 = theta0;
  // "Putting more rate increment on each probing step" also requires lifting
  // the dynamic change boundary, which otherwise clips large theta0 steps.
  if (theta0 > 1.0) {
    vivace.epsilon = 0.15;
    vivace.omega_base = 0.10;
    vivace.omega_step = 0.10;
  }
  for (int i = 0; i < flows; ++i) {
    scenario.AddFlow("vivace", interval * i);
  }
  scenario.Run(until);
  const Network& net = scenario.network();
  Outcome out;
  out.jain = AverageJain(net, interval * (flows - 1), until, Milliseconds(500));
  double stddev = 0.0;
  for (int i = 0; i < flows; ++i) {
    stddev += net.flow_stats(i).throughput_mbps.StdDevOver(until / 2, until);
  }
  out.stddev_mbps = stddev / flows;
  out.util = LinkUtilization(net, 0, interval * (flows - 1), until);
  const ConvergenceMeasurement m =
      MeasureConvergence(net, flows - 1, interval * (flows - 1),
                         ToMbps(config.bandwidth) / flows, 0.15, Seconds(1.0), until);
  out.conv_s = m.convergence_time < 0 ? -1.0 : ToSeconds(m.convergence_time);
  return out;
}

int Main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const TimeNs interval = quick ? Seconds(15.0) : Seconds(40.0);
  const TimeNs until = quick ? Seconds(60.0) : Seconds(160.0);

  PrintBenchHeader("Figure 2", "Enhanced Vivace (enlarged theta0) performs diversely");
  ConsoleTable table({"setting", "RTT", "theta0", "avg Jain", "conv time (s)",
                      "thr stddev (Mbps)", "utilization"});
  struct Case {
    const char* label;
    TimeNs rtt;
    double theta0;
  };
  const Case cases[] = {
      {"default, high RTT (Fig 1b)", Milliseconds(120), 0.8},
      {"tuned,   high RTT (Fig 2a)", Milliseconds(120), 2.0},
      {"default, low RTT", Milliseconds(12), 0.8},
      {"tuned,   low RTT  (Fig 2b)", Milliseconds(12), 2.0},
  };
  for (const Case& c : cases) {
    const Outcome out = RunVivace(c.theta0, c.rtt, interval, until, 3);
    table.AddRow({c.label, ConsoleTable::Num(ToMillis(c.rtt), 0) + "ms",
                  ConsoleTable::Num(c.theta0, 1), ConsoleTable::Num(out.jain, 3),
                  out.conv_s < 0 ? "never" : ConsoleTable::Num(out.conv_s, 1),
                  ConsoleTable::Num(out.stddev_mbps), ConsoleTable::Num(out.util, 3)});
  }
  table.Print();
  std::printf("\npaper: tuned theta0 converges quickly at 120 ms but is unstable at 12 ms\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
