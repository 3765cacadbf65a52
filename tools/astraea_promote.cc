// astraea_promote: checkpoint promotion gate CLI (DESIGN.md §14).
//
//   astraea_promote --candidate new.ckpt --incumbent models/astraea_policy.ckpt
//                   [--install] [--json report.json]
//                   [--suite=golden|universe] [--traces DIR]
//
// Scores the candidate against the incumbent on the golden scenario suite
// (utilization, Jain fairness, p95 delay, loss — see src/train/promotion.h;
// the scenario rows live in src/train/scoring.cc).
// --suite=universe swaps in the scenario-universe gate (shallow-buffer ECN,
// cellular trace replay, contested link; UniverseGateSuite) for candidates
// that must also hold up outside the paper's dumbbells.
// Without --install this is a dry run: the verdict is printed and nothing is
// written. With --install, an accepted candidate atomically replaces the
// incumbent file (tmp + fsync + rename), which is exactly the artifact
// astraea_serve hot-reloads on SIGHUP.
//
// Exit codes: 0 accept, 2 reject, 1 error (unreadable candidate, I/O).

#include <cstdio>
#include <cstring>
#include <string>

#include "src/train/promotion.h"
#include "src/util/cli_flags.h"

#ifndef ASTRAEA_SOURCE_DIR
#define ASTRAEA_SOURCE_DIR "."
#endif

namespace astraea {
namespace {

int Main(int argc, char** argv) {
  std::string candidate;
  std::string incumbent;
  std::string json_path;
  std::string suite = "golden";
  std::string traces = std::string(ASTRAEA_SOURCE_DIR) + "/traces";
  bool install = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--candidate") == 0) {
      candidate = next();
    } else if (std::strcmp(argv[i], "--incumbent") == 0) {
      incumbent = next();
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next();
    } else if (std::strcmp(argv[i], "--install") == 0) {
      install = true;
    } else if (std::strcmp(argv[i], "--suite") == 0) {
      suite = next();
    } else if (std::strncmp(argv[i], "--suite=", 8) == 0) {
      suite = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--traces") == 0) {
      traces = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (candidate.empty() || incumbent.empty()) {
    std::fprintf(stderr,
                 "usage: astraea_promote --candidate PATH --incumbent PATH"
                 " [--install] [--json PATH] [--suite=golden|universe] [--traces DIR]\n");
    return 1;
  }
  if (suite != "golden" && suite != "universe") {
    std::fprintf(stderr, "unknown suite '%s' (golden or universe)\n", suite.c_str());
    return 1;
  }

  GateReport report;
  try {
    GateOptions gate_options;
    if (suite == "universe") {
      gate_options.suite = UniverseGateSuite(traces);
    }
    report = PromotionGate(std::move(gate_options)).CompareFiles(candidate, incumbent);
  } catch (const SerializationError& e) {
    std::fprintf(stderr, "promotion gate error: %s\n", e.what());
    return 1;
  }

  if (!json_path.empty() && !cli::WriteOutputFile(json_path, report.ToJson() + "\n")) {
    return 1;
  }

  for (const GateScenarioResult& r : report.scenarios) {
    std::printf("  %-8s candidate %+.4f  incumbent %+.4f  (util %.3f/%.3f, jain %.3f/%.3f,"
                " p95 %.1f/%.1f ms)\n",
                r.name.c_str(), r.candidate.composite, r.incumbent.composite,
                r.candidate.utilization, r.incumbent.utilization, r.candidate.jain,
                r.incumbent.jain, r.candidate.p95_delay_ms, r.incumbent.p95_delay_ms);
  }
  std::printf("totals: candidate %+.4f vs incumbent %+.4f (%d wins, %d losses)\n",
              report.candidate_total, report.incumbent_total, report.wins, report.losses);

  if (!report.accepted) {
    std::printf("verdict: REJECT — %s\n", report.reason.c_str());
    return 2;
  }
  std::printf("verdict: ACCEPT — %s\n", report.reason.c_str());
  if (install) {
    try {
      AtomicInstall(candidate, incumbent);
    } catch (const SerializationError& e) {
      std::fprintf(stderr, "install failed: %s\n", e.what());
      return 1;
    }
    std::printf("installed %s -> %s\n", candidate.c_str(), incumbent.c_str());
  } else {
    std::printf("dry run (pass --install to replace the incumbent)\n");
  }
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
