// One scoring suite (DESIGN.md §14.5): astraea_eval's scorecard, the
// promotion gate and the trainer's fairness evaluation read their scenarios
// from the row tables below and score them through one runner,
// ScoreScenario(). A row is a single-bottleneck ("dumbbell") scenario:
// Astraea flows driven by the policy under test plus optional cross traffic.

#ifndef SRC_TRAIN_SCORING_H_
#define SRC_TRAIN_SCORING_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/multi_flow_env.h"
#include "src/core/policy.h"
#include "src/core/training_config.h"
#include "src/eval/scenario.h"
#include "src/sim/rate_provider.h"
#include "src/util/time.h"

namespace astraea {

enum class CrossTraffic {
  kNone,
  kCubic,            // one CUBIC flow from t=0
  kNewRenoAndBlast,  // NewReno from t=0 plus a 0.4x-rate UDP blast over
                     // [5/8, 6/8) of the run
};

// `n` flows arriving `gap` apart from t=0, each running to the end.
std::vector<FlowSchedule> StaggeredFlows(int n, TimeNs gap);

// One scenario row; the defaults are the promotion gate's clean dumbbell.
// Every member has a default, so tables can name only what differs.
struct ScoringScenario {
  std::string name;
  RateBps bandwidth = Mbps(96);
  TimeNs base_rtt = Milliseconds(40);
  double buffer_bdp = 1.0;
  double random_loss = 0.0;
  Qdisc qdisc = Qdisc::kDropTail;
  // Drives the link rate when set; its mean over the run then replaces
  // `bandwidth` for buffer sizing and the convergence fair share.
  std::shared_ptr<RateProvider> trace = nullptr;
  std::vector<FlowSchedule> flows = StaggeredFlows(3, Seconds(1.0));  // Astraea flows
  CrossTraffic cross = CrossTraffic::kNone;
  TimeNs until = Seconds(8.0);
  TimeNs score_from = Seconds(4.0);  // the scoring window is [score_from, until)
  uint64_t seed = 1;
};

// Every field is computed over the Astraea flows only, in the row's scoring
// window (loss: over the whole run), by the window metrics of
// src/eval/window_metrics.h.
struct ScenarioScore {
  double utilization = 0.0;    // goodput / link capacity
  double jain = 1.0;           // mean Jain index over 1 s slots
  double jain_of_means = 1.0;  // Jain index of the per-flow mean throughputs
  double mean_rtt_ms = 0.0;    // mean of the per-MTP RTT samples
  double p95_delay_ms = 0.0;   // p95 of the per-MTP RTT samples
  double loss_rate = 0.0;      // bytes lost / bytes sent (LostPerSentRatio)
  // The last arrival: from its start to a sustained (1 s) entry into ±10% of
  // the fair share (capacity / Astraea flows), 99 if it never enters; then
  // its throughput stddev from that entry (from its start if it never did).
  double convergence_s = 0.0;
  double stability_mbps = 0.0;
  double cross_ratio = 0.0;    // first Astraea flow / first cross flow throughput
  double composite = 0.0;      // the promotion gate's; ScoreScenario leaves it 0
};

// Maps the row onto a DumbbellScenario, runs it to `until` with every
// Astraea flow acting through `policy` under `hp`, and scores it.
// Deterministic: the row pins every seed, and no other stream is read.
ScenarioScore ScoreScenario(const ScoringScenario& row, std::shared_ptr<const Policy> policy,
                            const AstraeaHyperparameters& hp);

// The golden trio (clean / lossy / red) as multi-flow fairness scenarios.
std::vector<ScoringScenario> GoldenGateSuite();

// The scenario-universe gate (astraea_promote --suite=universe): a
// shallow-buffer ECN bottleneck, the bundled cellular trace replay, and a
// contested link. Loads `traces_dir`/cellular.trace; throws
// SerializationError if it cannot.
std::vector<ScoringScenario> UniverseGateSuite(const std::string& traces_dir);

// VectorizedTrainer::EvaluateFairness(): three flows 4 s apart on a
// 100 Mbps / 40 ms link, read as `jain`.
ScoringScenario TrainerEvalScenario();

// One printed row of astraea_eval's scorecard.
struct CheckResult {
  std::string name;
  std::string value;   // printed with the check's format
  std::string target;  // e.g. ">= 0.90"
  bool pass = false;
};

// astraea_eval's scorecard: scores its six scenarios (single flow, three
// staggered flows, RTT heterogeneity, CUBIC coexistence, a synthetic
// LTE-like trace, satellite) once each and evaluates its ten checks, in
// table order.
std::vector<CheckResult> RunScorecard(std::shared_ptr<const Policy> policy,
                                      const AstraeaHyperparameters& hp);

}  // namespace astraea

#endif  // SRC_TRAIN_SCORING_H_
