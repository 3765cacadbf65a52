#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "src/train/promotion.h"
#include "src/util/failpoint.h"

namespace astraea {
namespace {

// Always shrinks the window: drives utilization toward the floor on every
// scenario, so it reliably loses to any reasonable policy.
class CrippledPolicy : public Policy {
 public:
  double Act(const StateView&) const override { return -1.0; }
  std::string name() const override { return "crippled"; }
};

// One short, small scenario keeps each scoring run to a fraction of a second.
GateOptions QuickGate() {
  GateOptions options;
  ScoringScenario scenario;
  scenario.name = "quick";
  scenario.bandwidth = Mbps(24);
  scenario.base_rtt = Milliseconds(30);
  scenario.flows = StaggeredFlows(2, Seconds(1.0));
  scenario.until = Seconds(4.0);
  scenario.score_from = Seconds(2.0);
  options.suite = {scenario};
  return options;
}

TEST(PromotionGateTest, RejectsAWorseCandidate) {
  PromotionGate gate(QuickGate());
  const GateReport report = gate.Compare(std::make_shared<CrippledPolicy>(),
                                         std::make_shared<DistilledPolicy>());
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.losses, 1);
  EXPECT_LT(report.candidate_total, report.incumbent_total);
}

TEST(PromotionGateTest, AcceptsABetterCandidate) {
  PromotionGate gate(QuickGate());
  const GateReport report = gate.Compare(std::make_shared<DistilledPolicy>(),
                                         std::make_shared<CrippledPolicy>());
  EXPECT_TRUE(report.accepted);
  EXPECT_EQ(report.wins, 1);
  EXPECT_GT(report.candidate_total, report.incumbent_total);
}

TEST(PromotionGateTest, TieKeepsTheIncumbent) {
  // Identical policies score identically (scoring is deterministic); a tie
  // must not trigger a pointless install.
  PromotionGate gate(QuickGate());
  const auto policy = std::make_shared<DistilledPolicy>();
  const GateReport report = gate.Compare(policy, policy);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.wins, 0);
  EXPECT_EQ(report.losses, 0);
  EXPECT_DOUBLE_EQ(report.candidate_total, report.incumbent_total);
}

TEST(PromotionGateTest, ScoringIsDeterministic) {
  const GateOptions options = QuickGate();
  const auto policy = std::make_shared<DistilledPolicy>();
  const ScenarioScore a = ScoreScenario(options.suite[0], policy, options.hp);
  const ScenarioScore b = ScoreScenario(options.suite[0], policy, options.hp);
  EXPECT_EQ(a.jain, b.jain);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.p95_delay_ms, b.p95_delay_ms);
}

TEST(PromotionGateTest, DefaultSuiteIsTheGoldenTrio) {
  PromotionGate gate;
  ASSERT_EQ(gate.options().suite.size(), 3u);
  EXPECT_EQ(gate.options().suite[0].name, "clean");
  EXPECT_EQ(gate.options().suite[1].name, "lossy");
  EXPECT_EQ(gate.options().suite[2].name, "red");
}

TEST(PromotionGateTest, CompareFilesRejectsAnUnparsableCandidate) {
  // A candidate that cannot load as a trained network must error out, not
  // silently fall back to the distilled policy and "win" without containing
  // a network.
  const std::string garbage = "/tmp/astraea_promotion_garbage.ckpt";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a checkpoint";
  }
  PromotionGate gate(QuickGate());
  EXPECT_THROW(gate.CompareFiles(garbage, garbage), SerializationError);
  std::filesystem::remove(garbage);
}

TEST(PromotionGateTest, CompareFilesFallsBackOnlyForAMissingIncumbent) {
  const std::string model = std::string(ASTRAEA_SOURCE_DIR) + "/models/astraea_policy_trained.ckpt";
  // The first 100 bytes of a real checkpoint: an install damaged mid-write.
  const std::string truncated = "/tmp/astraea_promotion_truncated.ckpt";
  {
    std::ifstream in(model, std::ios::binary);
    std::string head(100, '\0');
    ASSERT_TRUE(in.read(head.data(), static_cast<std::streamsize>(head.size())));
    std::ofstream(truncated, std::ios::binary) << head;
  }
  PromotionGate gate(QuickGate());
  try {
    gate.CompareFiles(model, truncated);
    ADD_FAILURE() << "a truncated incumbent was scored instead of rejected";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find(truncated), std::string::npos) << e.what();
  }
  std::filesystem::remove(truncated);

  // No incumbent installed: the candidate is scored against the distilled
  // policy.
  const GateReport report = gate.CompareFiles(model, "/nonexistent/astraea_incumbent.ckpt");
  EXPECT_EQ(report.scenarios.size(), 1u);
}

TEST(PromotionGateTest, ReportSerializesToJson) {
  PromotionGate gate(QuickGate());
  const GateReport report = gate.Compare(std::make_shared<DistilledPolicy>(),
                                         std::make_shared<CrippledPolicy>());
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"quick\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
}

const std::string kTracesDir = std::string(ASTRAEA_SOURCE_DIR) + "/traces";

// The universe suite (astraea_promote --suite=universe), trimmed to a
// test-sized horizon. Scenario shapes — ECN bottleneck, trace replay, cross
// traffic — are exactly the shipped suite's; only the run shrinks, still
// scored over its second half.
GateOptions UniverseGate() {
  GateOptions options;
  options.suite = UniverseGateSuite(kTracesDir);
  for (ScoringScenario& scenario : options.suite) {
    scenario.until = Seconds(3.0);
    scenario.score_from = Seconds(1.5);
  }
  return options;
}

TEST(UniverseGateTest, SuiteCoversTheThreeRegimes) {
  const auto suite = UniverseGateSuite(kTracesDir);
  ASSERT_EQ(suite.size(), 3u);
  EXPECT_EQ(suite[0].name, "shallow-ecn");
  EXPECT_EQ(suite[0].qdisc, Qdisc::kEcn);
  EXPECT_EQ(suite[1].name, "cellular");
  EXPECT_NE(suite[1].trace, nullptr);
  EXPECT_EQ(suite[2].name, "contested");
  EXPECT_EQ(suite[2].cross, CrossTraffic::kNewRenoAndBlast);
  // The cellular capture is read from `traces_dir`.
  EXPECT_THROW(UniverseGateSuite("/does/not/matter"), SerializationError);
}

TEST(UniverseGateTest, AcceptsBetterRejectsWorse) {
  // The distilled policy must clearly beat the window-collapsing one on the
  // trace and contested regimes; shallow-ecn can tie (even a crippled window
  // refills a 10 ms-RTT pipe between decisions), so assert the verdict and a
  // majority of wins rather than a clean sweep.
  PromotionGate gate(UniverseGate());
  const GateReport accept = gate.Compare(std::make_shared<DistilledPolicy>(),
                                         std::make_shared<CrippledPolicy>());
  EXPECT_TRUE(accept.accepted);
  EXPECT_GE(accept.wins, 2) << accept.ToJson();
  EXPECT_GT(accept.candidate_total, accept.incumbent_total);
  const GateReport reject = gate.Compare(std::make_shared<CrippledPolicy>(),
                                         std::make_shared<DistilledPolicy>());
  EXPECT_FALSE(reject.accepted);
  EXPECT_GE(reject.losses, 2);
}

TEST(UniverseGateTest, CrossTrafficShapesButDoesNotPolluteScores) {
  // The contested scenario's competitor + blast must depress the Astraea
  // flows' utilization relative to the same link without cross traffic —
  // proof the cross traffic is real and the scoring window is Astraea-only.
  const GateOptions options = UniverseGate();
  const ScoringScenario& contested = options.suite[2];
  ASSERT_EQ(contested.cross, CrossTraffic::kNewRenoAndBlast);
  ScoringScenario uncontested = contested;
  uncontested.cross = CrossTraffic::kNone;
  const auto policy = std::make_shared<DistilledPolicy>();
  const ScenarioScore with = ScoreScenario(contested, policy, options.hp);
  const ScenarioScore without = ScoreScenario(uncontested, policy, options.hp);
  EXPECT_LT(with.utilization, without.utilization);
}

TEST(AtomicInstallTest, ReplacesTheTargetBytes) {
  const std::string candidate = "/tmp/astraea_install_candidate.bin";
  const std::string target = "/tmp/astraea_install_target.bin";
  {
    std::ofstream out(candidate, std::ios::binary);
    out << "new-policy-bytes";
  }
  {
    std::ofstream out(target, std::ios::binary);
    out << "old";
  }
  AtomicInstall(candidate, target);
  std::ifstream in(target, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, "new-policy-bytes");
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  std::filesystem::remove(candidate);
  std::filesystem::remove(target);
}

TEST(AtomicInstallTest, MissingCandidateThrowsAndLeavesTargetIntact) {
  const std::string target = "/tmp/astraea_install_keep.bin";
  {
    std::ofstream out(target, std::ios::binary);
    out << "incumbent";
  }
  EXPECT_THROW(AtomicInstall("/tmp/astraea_no_such_candidate.bin", target),
               SerializationError);
  std::ifstream in(target, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, "incumbent");
  std::filesystem::remove(target);
}

TEST(AtomicInstallTest, CrashBeforeRenameKeepsTheIncumbent) {
  // The install goes through the checkpoint container's durable write, so
  // its failpoints apply: dying with the new bytes written and synced but
  // not yet renamed must leave the incumbent in place.
  const std::string candidate = "/tmp/astraea_install_fp_candidate.bin";
  const std::string target = "/tmp/astraea_install_fp_target.bin";
  {
    std::ofstream out(candidate, std::ios::binary);
    out << "new-policy-bytes";
  }
  {
    std::ofstream out(target, std::ios::binary);
    out << "incumbent";
  }
  failpoint::Configure("ckpt.commit.before_rename=1:throw");
  EXPECT_THROW(AtomicInstall(candidate, target), failpoint::Injected);
  failpoint::Clear();
  std::ifstream in(target, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, "incumbent");
  std::filesystem::remove(candidate);
  std::filesystem::remove(target);
  std::filesystem::remove(target + ".tmp");
}

}  // namespace
}  // namespace astraea
