#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "src/core/policy.h"

namespace astraea {
namespace {

// Builds a StateView over a synthetic report; `state` must outlive the view.
struct ViewFixture {
  ViewFixture(double cwnd_pkts, TimeNs lat, TimeNs lat_min, double loss_ratio = 0.0) {
    report.now = Milliseconds(30);
    report.mtp = Milliseconds(30);
    report.cwnd_bytes = static_cast<uint64_t>(cwnd_pkts * 1500);
    report.avg_rtt = lat;
    report.srtt = lat;
    report.min_rtt = lat_min;
    report.acked_packets = 50;
    report.loss_ratio = loss_ratio;
    report.thr_bps = Mbps(50);
    report.pacing_bps = Mbps(50);
    state.assign(40, 0.0f);
    view.state_vector = state;
    view.report = &report;
    view.lat_min = lat_min;
    view.thr_max_bps = Mbps(100);
    view.mss = 1500;
    view.mtp = Milliseconds(30);
    view.action_alpha = 0.025;
  }
  MtpReport report;
  std::vector<float> state;
  StateView view;
};

TEST(ActionBlockTest, Eq3MappingMatchesPaper) {
  // a >= 0: cwnd * (1 + alpha*a); a < 0: cwnd / (1 - alpha*a).
  EXPECT_EQ(ApplyActionToCwnd(100'000, 1.0, 0.025, 1500), 102'500u);
  EXPECT_EQ(ApplyActionToCwnd(100'000, 0.0, 0.025, 1500), 100'000u);
  EXPECT_EQ(ApplyActionToCwnd(102'500, -1.0, 0.025, 1500),
            static_cast<uint64_t>(102'500 / 1.025));
}

TEST(ActionBlockTest, InverseConsistency) {
  // +a then -a returns to the original window (the Eq. 3 asymmetric form's
  // point): cwnd*(1+aa) / (1+aa) == cwnd.
  const uint64_t w0 = 300'000;
  for (double a : {0.1, 0.5, 1.0}) {
    const uint64_t up = ApplyActionToCwnd(w0, a, 0.025, 1500);
    const uint64_t back = ApplyActionToCwnd(up, -a, 0.025, 1500);
    EXPECT_NEAR(static_cast<double>(back), static_cast<double>(w0), 2.0) << "a=" << a;
  }
}

TEST(ActionBlockTest, FloorAtTwoMss) {
  EXPECT_EQ(ApplyActionToCwnd(3000, -1.0, 0.025, 1500), 3000u);
  EXPECT_EQ(ApplyActionToCwnd(100, -1.0, 0.025, 1500), 3000u);
}

TEST(ActionBlockTest, ActionsAreClamped) {
  EXPECT_EQ(ApplyActionToCwnd(100'000, 5.0, 0.025, 1500),
            ApplyActionToCwnd(100'000, 1.0, 0.025, 1500));
}

TEST(DistilledPolicyTest, ActionDecreasesWithDelay) {
  // The Fig. 17 structure: at fixed cwnd, higher observed delay -> lower action.
  DistilledPolicy policy;
  double prev = 2.0;
  for (int ms = 30; ms <= 90; ms += 10) {
    ViewFixture fx(100, Milliseconds(ms), Milliseconds(30));
    const double a = policy.Act(fx.view);
    EXPECT_LE(a, prev + 1e-9) << "lat=" << ms;
    prev = a;
  }
}

TEST(DistilledPolicyTest, EmptyQueueMeansIncrease) {
  DistilledPolicy policy;
  ViewFixture fx(100, Milliseconds(30), Milliseconds(30));
  EXPECT_GT(policy.Act(fx.view), 0.5);
}

TEST(DistilledPolicyTest, DeepQueueMeansDecrease) {
  DistilledPolicy policy;
  ViewFixture fx(200, Milliseconds(90), Milliseconds(30));  // backlog ~133 pkts >> K
  EXPECT_LT(policy.Act(fx.view), -0.5);
}

TEST(DistilledPolicyTest, EquilibriumTransfersBandwidthToSmallFlow) {
  // Two flows sharing one queue observe the same delay. The higher-cwnd flow
  // must receive the lower action (the §5.5 bandwidth-transfer argument).
  DistilledPolicy policy;
  const TimeNs shared_lat = Milliseconds(36);
  ViewFixture big(200, shared_lat, Milliseconds(30));
  ViewFixture small(50, shared_lat, Milliseconds(30));
  EXPECT_LT(policy.Act(big.view), policy.Act(small.view));
}

TEST(DistilledPolicyTest, EquilibriumActionIsZeroAtTargetBacklog) {
  DistilledPolicy policy;
  const double k = policy.config().target_backlog_pkts;
  // Choose lat so that cwnd*(1 - lat_min/lat) == K: lat = lat_min/(1 - K/cwnd).
  const double cwnd = 100;
  const double lat_min_ms = 30.0;
  const double lat_ms = lat_min_ms / (1.0 - k / cwnd);
  ViewFixture fx(cwnd, static_cast<TimeNs>(lat_ms * kNanosPerMilli),
                 Milliseconds(30));
  EXPECT_NEAR(policy.Act(fx.view), 0.0, 0.1);
}

TEST(DistilledPolicyTest, HeavyLossForcesBackoff) {
  DistilledPolicy policy;
  ViewFixture fx(100, Milliseconds(30), Milliseconds(30), /*loss_ratio=*/0.2);
  EXPECT_LT(policy.Act(fx.view), 0.0);
}

TEST(DistilledPolicyTest, ToleratesNonCongestiveLoss) {
  // 0.74% random loss (the satellite scenario) must not trigger backoff when
  // the queue is empty.
  DistilledPolicy policy;
  ViewFixture fx(100, Milliseconds(30), Milliseconds(30), /*loss_ratio=*/0.0074);
  EXPECT_GT(policy.Act(fx.view), 0.0);
}

TEST(DistilledPolicyTest, IdleMtpProbesUpward) {
  DistilledPolicy policy;
  ViewFixture fx(100, Milliseconds(30), Milliseconds(30));
  fx.report.acked_packets = 0;
  EXPECT_DOUBLE_EQ(policy.Act(fx.view), 1.0);
}

TEST(DistilledPolicyTest, GainNormalizationKeepsActionsModestNearEquilibrium) {
  // At 10x the RTT and 10x the cwnd (same BDP scale-up), the action stays in
  // a comparable range instead of exploding — the loop-gain normalization.
  DistilledPolicy policy;
  ViewFixture small(100, Milliseconds(33), Milliseconds(30));
  ViewFixture large(1000, Milliseconds(330), Milliseconds(300));
  large.view.lat_min = Milliseconds(300);
  EXPECT_LT(std::abs(policy.Act(large.view)), 1.0);
  EXPECT_LT(std::abs(policy.Act(large.view) - policy.Act(small.view)), 0.8);
}

TEST(MlpPolicyTest, RunsACheckpointRoundTrip) {
  Rng rng(1);
  Mlp actor({40, 16, 1}, OutputActivation::kTanh, &rng);
  const std::string path = "/tmp/astraea_policy_test.ckpt";
  {
    BinaryWriter w(path);
    actor.Save(&w);
  }
  auto policy = MlpPolicy::LoadFromFile(path);
  ViewFixture fx(100, Milliseconds(40), Milliseconds(30));
  const double a = policy->Act(fx.view);
  EXPECT_GE(a, -1.0);
  EXPECT_LE(a, 1.0);
  // Must equal the raw actor output.
  EXPECT_NEAR(a, actor.Infer(fx.view.state_vector)[0], 1e-6);
  std::filesystem::remove(path);
}

TEST(MlpPolicyTest, ShippedTrainedArtifactLoads) {
  // models/astraea_policy_trained.ckpt is the checked-in trained actor. It
  // must parse as a real network — historically it failed dims validation
  // and every consumer silently fell back to the distilled policy, which
  // made "trained" benches measure the wrong controller.
  const std::string path =
      std::string(ASTRAEA_SOURCE_DIR) + "/models/astraea_policy_trained.ckpt";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const auto policy = MlpPolicy::LoadFromFile(path);
  EXPECT_EQ(policy->actor().input_size(), 40);  // kLocalFeatures * history
  EXPECT_EQ(policy->actor().output_size(), 1);
  ViewFixture fx(100, Milliseconds(40), Milliseconds(30));
  const double a = policy->Act(fx.view);
  EXPECT_GE(a, -1.0);
  EXPECT_LE(a, 1.0);
  // And the default loader must pick it up as the trained policy, not the
  // distilled fallback.
  EXPECT_EQ(LoadDefaultPolicy(path)->name(), "astraea-mlp");
}

// Sets ASTRAEA_MODEL (unsets it for nullptr) and restores it on scope exit.
class ScopedModelEnv {
 public:
  explicit ScopedModelEnv(const char* value) {
    if (const char* old = std::getenv("ASTRAEA_MODEL"); old != nullptr) {
      saved_ = old;
    }
    Set(value);
  }
  ~ScopedModelEnv() { Set(saved_ ? saved_->c_str() : nullptr); }

 private:
  static void Set(const char* value) {
    if (value != nullptr) {
      setenv("ASTRAEA_MODEL", value, 1);
    } else {
      unsetenv("ASTRAEA_MODEL");
    }
  }
  std::optional<std::string> saved_;
};

std::string TrainedCheckpoint() {
  return std::string(ASTRAEA_SOURCE_DIR) + "/models/astraea_policy_trained.ckpt";
}

TEST(LoadDefaultPolicyTest, IgnoresACheckpointInTheWorkingDirectory) {
  // astraea_train writes models/astraea_policy.ckpt by default; one left in
  // the working directory must not change which policy "astraea" runs.
  const ScopedModelEnv no_model(nullptr);
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("astraea_policy_test_" + std::to_string(getpid()));
  std::filesystem::create_directories(dir / "models");
  const std::filesystem::path ckpt = dir / "models/astraea_policy.ckpt";
  std::filesystem::copy_file(TrainedCheckpoint(), ckpt,
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_EQ(MlpPolicy::LoadFromFile(ckpt.string())->name(), "astraea-mlp");
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  const std::string chosen = LoadDefaultPolicy()->name();
  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(chosen, "astraea-distilled");
}

TEST(LoadDefaultPolicyTest, MissingCheckpointThrowsNamingIt) {
  // A named checkpoint that does not load is an error, never a silent
  // substitution of the distilled policy.
  const ScopedModelEnv no_model(nullptr);
  try {
    LoadDefaultPolicy("/nonexistent/path.ckpt");
    ADD_FAILURE() << "a missing checkpoint loaded";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/path.ckpt"), std::string::npos)
        << e.what();
  }
}

TEST(LoadDefaultPolicyTest, AstraeaModelSelectsTheCheckpoint) {
  const ScopedModelEnv model(TrainedCheckpoint().c_str());
  EXPECT_EQ(LoadDefaultPolicy()->name(), "astraea-mlp");
}

}  // namespace
}  // namespace astraea
