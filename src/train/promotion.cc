#include "src/train/promotion.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/util/checkpoint.h"
#include "src/util/metrics.h"

namespace astraea {

namespace {

// ScoreScenario plus the composite the verdict compares: reward-shaped but
// dimensionless. Latency only penalizes past the reward block's (1+beta)
// grace band, in units of the base RTT; loss is weighted like the Eq. 4 loss
// term relative to throughput.
ScenarioScore Score(const ScoringScenario& row, std::shared_ptr<const Policy> policy,
                    const AstraeaHyperparameters& hp) {
  ScenarioScore s = ScoreScenario(row, std::move(policy), hp);
  const double base_ms = static_cast<double>(row.base_rtt) / 1e6;
  const double lat_pen = std::max(0.0, s.p95_delay_ms / base_ms - (1.0 + hp.reward.beta));
  s.composite = s.utilization + s.jain - 0.25 * lat_pen - 2.0 * s.loss_rate;
  return s;
}

}  // namespace

PromotionGate::PromotionGate(GateOptions options) : options_(std::move(options)) {
  if (options_.suite.empty()) {
    options_.suite = GoldenGateSuite();
  }
  // Pre-register verdict metrics at construction (PR-6/PR-7 convention).
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("train.promote.accepted_total");
  reg.GetCounter("train.promote.rejected_total");
  reg.GetCounter("train.promote.scenarios_total");
}

GateReport PromotionGate::Compare(std::shared_ptr<const Policy> candidate,
                                  std::shared_ptr<const Policy> incumbent) const {
  constexpr double kTieTolerance = 1e-6;
  GateReport report;
  MetricsRegistry& reg = MetricsRegistry::Global();
  double worst_regression = 0.0;
  std::string worst_scenario;
  for (const ScoringScenario& scenario : options_.suite) {
    GateScenarioResult result;
    result.name = scenario.name;
    result.candidate = Score(scenario, candidate, options_.hp);
    result.incumbent = Score(scenario, incumbent, options_.hp);
    reg.GetCounter("train.promote.scenarios_total").Increment(2);
    report.candidate_total += result.candidate.composite;
    report.incumbent_total += result.incumbent.composite;
    const double delta = result.candidate.composite - result.incumbent.composite;
    if (delta > kTieTolerance) {
      ++report.wins;
    } else if (delta < -kTieTolerance) {
      ++report.losses;
      if (-delta > worst_regression) {
        worst_regression = -delta;
        worst_scenario = scenario.name;
      }
    }
    report.scenarios.push_back(std::move(result));
  }

  if (worst_regression > options_.max_scenario_regression) {
    report.accepted = false;
    std::ostringstream reason;
    reason << "regression of " << worst_regression << " composite points on '" << worst_scenario
           << "' exceeds the " << options_.max_scenario_regression << " budget";
    report.reason = reason.str();
  } else if (report.candidate_total > report.incumbent_total + kTieTolerance) {
    report.accepted = true;
    report.reason = "candidate total beats incumbent";
  } else {
    report.accepted = false;
    report.reason = "candidate total does not beat incumbent (ties keep the incumbent)";
  }
  reg.GetCounter(report.accepted ? "train.promote.accepted_total"
                                 : "train.promote.rejected_total")
      .Increment();
  return report;
}

GateReport PromotionGate::CompareFiles(const std::string& candidate_path,
                                       const std::string& incumbent_path) const {
  // The candidate must be a real trained network; LoadFromFile throws
  // SerializationError otherwise (no silent distilled fallback here).
  std::shared_ptr<const Policy> candidate = MlpPolicy::LoadFromFile(candidate_path);
  // Only a missing incumbent means "nothing installed yet". One that exists
  // but does not load is a damaged install, and its SerializationError
  // propagates instead of reading as no model at all.
  std::error_code ignored;
  const bool missing = std::filesystem::status(incumbent_path, ignored).type() ==
                       std::filesystem::file_type::not_found;
  std::shared_ptr<const Policy> incumbent =
      missing ? std::shared_ptr<const Policy>(std::make_shared<DistilledPolicy>())
              : MlpPolicy::LoadFromFile(incumbent_path);
  return Compare(std::move(candidate), std::move(incumbent));
}

std::string GateReport::ToJson() const {
  std::ostringstream os;
  os << "{\"accepted\":" << (accepted ? "true" : "false") << ",\"reason\":\"" << reason
     << "\",\"wins\":" << wins << ",\"losses\":" << losses
     << ",\"candidate_total\":" << candidate_total << ",\"incumbent_total\":" << incumbent_total
     << ",\"scenarios\":[";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const GateScenarioResult& r = scenarios[i];
    auto emit = [&os](const char* who, const ScenarioScore& s) {
      os << "\"" << who << "\":{\"utilization\":" << s.utilization << ",\"jain\":" << s.jain
         << ",\"p95_delay_ms\":" << s.p95_delay_ms << ",\"loss_rate\":" << s.loss_rate
         << ",\"composite\":" << s.composite << "}";
    };
    os << (i > 0 ? "," : "") << "{\"name\":\"" << r.name << "\",";
    emit("candidate", r.candidate);
    os << ",";
    emit("incumbent", r.incumbent);
    os << "}";
  }
  os << "]}";
  return os.str();
}

void AtomicInstall(const std::string& candidate_path, const std::string& install_path) {
  std::ifstream in(candidate_path, std::ios::binary);
  if (!in) {
    throw SerializationError("cannot read candidate for install: " + candidate_path);
  }
  std::ostringstream blob;
  blob << in.rdbuf();
  WriteFileDurably(install_path, blob.str());
}

}  // namespace astraea
