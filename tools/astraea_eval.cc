// astraea_eval: a scorecard for an Astraea policy across the paper's
// canonical scenarios. Useful when iterating on training:
//
//   astraea_eval                          # distilled / default policy
//   astraea_eval --model models/foo.ckpt  # a specific checkpoint
//   astraea_eval --serve-socket /tmp/astraea.sock [--rpc-timeout 20ms]
//                [--connect-timeout 500ms]
//                                         # score decisions served by
//                                         # astraea_serve over shm IPC
//
// Scenarios and checks are the scorecard table in src/train/scoring.cc:
// single-flow utilization, 3-flow fairness/convergence, RTT-heterogeneous
// fairness, CUBIC coexistence, cellular trace, satellite.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/eval/cli_scenario.h"
#include "src/eval/table.h"
#include "src/train/scoring.h"
#include "src/util/cli_flags.h"

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  PolicyCliOptions policy_opts;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--model") == 0) {
      policy_opts.model = next("--model");
    } else if (std::strcmp(argv[i], "--serve-socket") == 0) {
      policy_opts.serve_socket = next("--serve-socket");
    } else if (std::strcmp(argv[i], "--rpc-timeout") == 0) {
      policy_opts.rpc_timeout =
          cli::ParsePositiveDuration("--rpc-timeout", next("--rpc-timeout"), Seconds(60.0));
    } else if (std::strcmp(argv[i], "--connect-timeout") == 0) {
      policy_opts.connect_timeout =
          cli::ParsePositiveDuration("--connect-timeout", next("--connect-timeout"), Seconds(60.0));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
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
