// Figure 17 — interpreting Astraea's policy: the state -> action mapping for
// flows at different operating rates as the observed delay varies. Shows the
// two properties §5.5 derives: the action decreases monotonically with delay,
// and each rate has its own zero-crossing (equilibrium delay), which is what
// transfers bandwidth from high-rate to low-rate flows.
//
// Runs the distilled policy always, and additionally the trained checkpoint
// that ASTRAEA_MODEL names (LoadDefaultPolicy's rule; a path that does not
// load throws).

#include <cstdio>

#include "src/core/policy.h"
#include "src/eval/table.h"
#include "src/util/cli_flags.h"

namespace astraea {
namespace {

void PrintMap(const Policy& policy) {
  std::printf("\n[%s] action vs observed RTT (base 40 ms, max-observed thr 200 Mbps)\n",
              policy.name().c_str());
  const double rates_mbps[] = {25, 50, 100, 150, 200};
  std::printf("%10s", "rtt(ms)");
  for (double r : rates_mbps) {
    std::printf("  thr=%3.0fM", r);
  }
  std::printf("\n");
  for (double rtt_ms = 40.0; rtt_ms <= 46.0; rtt_ms += 0.5) {
    std::printf("%10.1f", rtt_ms);
    for (double rate : rates_mbps) {
      // Build the flow's state at this operating point: cwnd = rate * rtt.
      MtpReport report;
      report.mtp = Milliseconds(30);
      report.thr_bps = Mbps(rate);
      report.avg_rtt = static_cast<TimeNs>(rtt_ms * static_cast<double>(kNanosPerMilli));
      report.srtt = report.avg_rtt;
      report.min_rtt = Milliseconds(40);
      report.cwnd_bytes =
          static_cast<uint64_t>(Mbps(rate) / 8.0 * ToSeconds(report.avg_rtt));
      report.inflight_bytes = report.cwnd_bytes;
      report.inflight_packets = report.cwnd_bytes / 1500;
      report.pacing_bps = Mbps(rate);
      report.acked_packets = 50;

      StateBlock sb(5);
      // Prime thr_max to 200 Mbps as in the paper's sweep.
      MtpReport primer = report;
      primer.thr_bps = Mbps(200);
      sb.Update(primer, 1500);
      sb.Update(report, 1500);
      const auto vec = sb.StateVector();

      StateView view;
      view.state_vector = vec;
      view.report = &report;
      view.lat_min = Milliseconds(40);
      view.thr_max_bps = Mbps(200);
      std::printf("  %8.3f", policy.Act(view));
    }
    std::printf("\n");
  }
}

int Main(int argc, char** argv) {
  cli::FlagSet().Parse(argc, argv);  // takes no argument
  PrintBenchHeader("Figure 17", "Astraea's learned state -> action mapping");
  DistilledPolicy distilled;
  PrintMap(distilled);

  const auto loaded = LoadDefaultPolicy();
  if (loaded->name() != "astraea-distilled") {
    PrintMap(*loaded);
  } else {
    std::printf("\n(no trained checkpoint selected; set ASTRAEA_MODEL, e.g. to "
                "models/astraea_policy_trained.ckpt, to add the MLP map)\n");
  }
  std::printf("\npaper: actions decrease with delay; higher-rate flows cross zero at lower "
              "delay, so shared queueing delay pushes rates together (fair consensus)\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
