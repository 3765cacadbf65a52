#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/train/scoring.h"
#include "src/train/vectorized_trainer.h"

namespace astraea {
namespace {

struct Row {
  const char* name;
  const char* target;
};

// astraea_eval's table: check names and targets, in print order.
const Row kRows[] = {
    {"single-flow utilization", ">= 0.90"},
    {"single-flow RTT inflation (x base)", "<= 1.50"},
    {"3-flow avg Jain", ">= 0.95"},
    {"3-flow convergence time (s)", "<= 5.00"},
    {"3-flow stability (Mbps)", "<= 3.00"},
    {"RTT-heterogeneous Jain", ">= 0.85"},
    {"vs-CUBIC throughput ratio", ">= 0.10"},
    {"cellular utilization", ">= 0.60"},
    {"cellular p95 RTT (x base)", "<= 8.00"},
    {"satellite utilization", ">= 0.60"},
};

struct Expected {
  const char* value;
  bool pass;
};

void ExpectScorecard(std::shared_ptr<const Policy> policy, const std::vector<Expected>& expected) {
  const std::vector<CheckResult> results = RunScorecard(std::move(policy), {});
  ASSERT_EQ(results.size(), std::size(kRows));
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].name, kRows[i].name);
    EXPECT_EQ(results[i].target, kRows[i].target) << kRows[i].name;
    EXPECT_EQ(results[i].value, expected[i].value) << kRows[i].name;
    EXPECT_EQ(results[i].pass, expected[i].pass) << kRows[i].name;
  }
}

TEST(ScorecardTest, CommittedCheckpoint) {
  const auto policy = MlpPolicy::LoadFromFile(std::string(ASTRAEA_SOURCE_DIR) +
                                              "/models/astraea_policy_trained.ckpt");
  ExpectScorecard(policy, {{"0.993", true},
                           {"1.268", true},
                           {"0.539", false},  // same-RTT fairness
                           {"99.00", false},  // never converged
                           {"1.43", true},
                           {"0.998", true},
                           {"0.16", true},
                           {"0.774", true},
                           {"3.60", true},
                           {"0.920", true}});
}

TEST(ScorecardTest, DistilledPolicy) {
  ExpectScorecard(std::make_shared<DistilledPolicy>(), {{"0.996", true},
                                                        {"1.034", true},
                                                        {"0.999", true},
                                                        {"1.23", true},
                                                        {"1.08", true},
                                                        {"0.894", true},
                                                        {"0.35", true},
                                                        {"0.848", true},
                                                        {"4.29", true},
                                                        {"0.934", true}});
}

// EvaluateFairness() is ScoreScenario(TrainerEvalScenario()) on a copy of
// the actor; these values pin it bit for bit, untrained and after training.
TEST(TrainerEvalTest, EvalJainIsBitIdentical) {
  VectorizedTrainerConfig config;
  config.episode_length = Seconds(6.0);
  config.num_envs = 1;
  VectorizedTrainer trainer(config);
  EXPECT_EQ(trainer.EvaluateFairness(), 0.88061988553782811);
  trainer.Train(2, {});
  EXPECT_EQ(trainer.EvaluateFairness(), 0.79595867114495555);
}

}  // namespace
}  // namespace astraea
