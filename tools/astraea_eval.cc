// astraea_eval: a scorecard for an Astraea policy across the paper's
// canonical scenarios. Useful when iterating on training:
//
//   astraea_eval                          # distilled / default policy
//   astraea_eval --model models/foo.ckpt  # a specific checkpoint
//   astraea_eval --serve-socket /tmp/astraea.sock [--rpc-timeout 20ms]
//                                         # score decisions served by
//                                         # astraea_serve over shm IPC
//
// Scenarios and checks are the scorecard table in src/train/scoring.cc:
// single-flow utilization, 3-flow fairness/convergence, RTT-heterogeneous
// fairness, CUBIC coexistence, cellular trace, satellite.

#include <cstdio>
#include <string>

#include "src/eval/cli_scenario.h"
#include "src/eval/table.h"
#include "src/train/scoring.h"
#include "src/util/cli_flags.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PolicyCliOptions policy_opts;
  cli::FlagSet flags;
  AddPolicyFlags(&flags, &policy_opts);
  flags.Parse(argc, argv);
  const std::shared_ptr<const Policy> policy = MakeCliPolicy(policy_opts);
  std::printf("policy under evaluation: %s\n\n", policy->name().c_str());

  const std::vector<CheckResult> results = RunScorecard(policy, AstraeaHyperparameters{});
  ConsoleTable table({"check", "value", "target", "verdict"});
  int passed = 0;
  for (const CheckResult& r : results) {
    table.AddRow({r.name, r.value, r.target, r.pass ? "PASS" : "FAIL"});
    passed += r.pass ? 1 : 0;
  }
  table.Print();
  std::printf("\n%d / %zu checks passed\n", passed, results.size());
  return passed == static_cast<int>(results.size()) ? 0 : 1;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
