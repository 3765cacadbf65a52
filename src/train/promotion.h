// Checkpoint promotion gate (DESIGN.md §14.5): a candidate policy replaces
// the incumbent only after beating it on the golden scenario trio — the link
// configurations the clean / lossy / RED golden traces pin, each run as a
// staggered multi-flow dumbbell (GoldenGateSuite() in scoring.h). The gate
// scores both policies with ScoreScenario() and owns only the composite and
// the verdict. tools/astraea_promote wraps this in a CLI whose accept path
// installs the candidate with the checkpoint container's durable-write
// protocol, so astraea_serve's SIGHUP hot-reload only ever sees a fully
// written, gate-approved artifact.

#ifndef SRC_TRAIN_PROMOTION_H_
#define SRC_TRAIN_PROMOTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/core/training_config.h"
#include "src/train/scoring.h"

namespace astraea {

struct GateScenarioResult {
  std::string name;
  ScenarioScore candidate;
  ScenarioScore incumbent;
};

struct GateReport {
  std::vector<GateScenarioResult> scenarios;
  double candidate_total = 0.0;
  double incumbent_total = 0.0;
  int wins = 0;    // scenarios where the candidate's composite is higher
  int losses = 0;  // ... lower by more than the tie tolerance
  bool accepted = false;
  std::string reason;
  std::string ToJson() const;
};

struct GateOptions {
  AstraeaHyperparameters hp;
  // Accept requires candidate_total > incumbent_total AND no single scenario
  // regressing by more than max_scenario_regression (composite points).
  double max_scenario_regression = 0.10;
  std::vector<ScoringScenario> suite;  // empty: GoldenGateSuite()
};

class PromotionGate {
 public:
  explicit PromotionGate(GateOptions options = {});

  // Full gate run; bumps train.promote.{accepted,rejected}_total.
  GateReport Compare(std::shared_ptr<const Policy> candidate,
                     std::shared_ptr<const Policy> incumbent) const;

  // File-level wrapper: the candidate must parse as a trained Mlp checkpoint.
  // A candidate that silently fell back to the distilled policy could "beat"
  // a real incumbent without containing a network; that happened once, when
  // the committed checkpoint stopped loading and every consumer fell back
  // without saying so. Throws SerializationError if it does not parse.
  // A missing incumbent is scored as the distilled fallback, so first-ever
  // promotions have a meaningful bar to clear; an incumbent file that exists
  // but does not load throws SerializationError naming it.
  GateReport CompareFiles(const std::string& candidate_path,
                          const std::string& incumbent_path) const;

  const GateOptions& options() const { return options_; }

 private:
  GateOptions options_;
};

// Installs `candidate_path`'s bytes at `install_path` through
// WriteFileDurably() (src/util/checkpoint.h: tmp + fsync + rename + dir
// fsync, with the ckpt.commit.* failpoints), so a serving process
// hot-reloading on SIGHUP can never observe a torn artifact. Throws
// SerializationError on any I/O failure.
void AtomicInstall(const std::string& candidate_path, const std::string& install_path);

}  // namespace astraea

#endif  // SRC_TRAIN_PROMOTION_H_
