// Ablation study (beyond the paper's figures): how much each mechanism in the
// deployed controller contributes, measured on the §5.1.1 staggered scenario
// and on the Fig. 14 coexistence-with-CUBIC scenario.
//
//   full            — the shipped configuration
//   no-drain-probe  — epoch drains disabled (min-RTT can stay contaminated)
//   low-gain/high-gain — backlog loop gain 0.1 / 0.8 (default 0.4)
//   small-K/large-K — per-flow backlog target 3 / 15 packets (default 7)

#include <cstdio>

#include "src/core/astraea_controller.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"

namespace astraea {
namespace {

struct Variant {
  const char* name;
  AstraeaHyperparameters hp;
  DistilledPolicyConfig policy;
};

std::vector<Variant> Variants() {
  std::vector<Variant> out;
  out.push_back({"full", {}, {}});
  {
    Variant v{"no-drain-probe", {}, {}};
    v.hp.probe_epoch = Seconds(1e9);
    out.push_back(v);
  }
  {
    Variant v{"low-gain (0.1)", {}, {}};
    v.policy.gain = 0.1;
    out.push_back(v);
  }
  {
    Variant v{"high-gain (0.8)", {}, {}};
    v.policy.gain = 0.8;
    out.push_back(v);
  }
  {
    Variant v{"small-K (3)", {}, {}};
    v.policy.target_backlog_pkts = 3.0;
    out.push_back(v);
  }
  {
    Variant v{"large-K (15)", {}, {}};
    v.policy.target_backlog_pkts = 15.0;
    out.push_back(v);
  }
  return out;
}

CcFactory VariantFactory(const Variant& v) {
  auto policy = std::make_shared<DistilledPolicy>(v.policy);
  const AstraeaHyperparameters hp = v.hp;
  return [policy, hp] { return std::make_unique<AstraeaController>(policy, hp); };
}

int Main(int argc, char** argv) {
  PrintBenchHeader("Ablation", "Contribution of each controller mechanism");
  const bool quick = QuickMode(argc, argv);
  const TimeNs interval = Seconds(quick ? 8.0 : 15.0);
  const TimeNs until = interval * 2 + Seconds(quick ? 20.0 : 45.0);

  ConsoleTable table({"variant", "Jain (3 flows)", "conv (s)", "stability (Mbps)",
                      "mean RTT (ms)", "util", "thr vs cubic"});
  for (const Variant& v : Variants()) {
    // Scenario A: 3 staggered homogeneous flows.
    DumbbellConfig config;
    config.bandwidth = Mbps(100);
    config.base_rtt = Milliseconds(30);
    config.buffer_bdp = 1.0;
    DumbbellScenario scenario(config);
    for (int i = 0; i < 3; ++i) {
      scenario.AddFlowWithFactory("astraea", VariantFactory(v), interval * i);
    }
    scenario.Run(until);
    const Network& net = scenario.network();
    const double jain = AverageJain(net, interval * 2, until, Milliseconds(500));
    const ConvergenceMeasurement m =
        MeasureConvergence(net, 2, interval * 2, 100.0 / 3.0, 0.10, Seconds(1.0), until);
    const double rtt = MeanRttMs(net, interval * 2, until);
    const double util = LinkUtilization(net, 0, interval * 2, until);

    // Scenario B: coexistence with one CUBIC flow.
    DumbbellScenario coexist(config);
    coexist.AddFlowWithFactory("astraea", VariantFactory(v), 0);
    coexist.AddFlow("cubic", 0);
    coexist.Run(Seconds(quick ? 25.0 : 40.0));
    const auto thr =
        FlowMeanThroughputs(coexist.network(), Seconds(10.0), Seconds(quick ? 25.0 : 40.0));
    const double friendliness = thr[0] / std::max(thr[1], 0.1);

    table.AddRow({v.name, ConsoleTable::Num(jain, 3),
                  m.convergence_time < 0 ? "never"
                                         : ConsoleTable::Num(ToSeconds(m.convergence_time), 2),
                  ConsoleTable::Num(m.stability_mbps, 2), ConsoleTable::Num(rtt, 1),
                  ConsoleTable::Num(util, 3), ConsoleTable::Num(friendliness, 2)});
  }
  table.Print();
  std::printf("\nexpected: removing the drain probe costs fairness under staggered arrivals "
              "and collapses the CUBIC coexistence ratio; gain trades convergence speed vs "
              "stability; K trades latency vs robustness in small-BDP regimes\n");
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
