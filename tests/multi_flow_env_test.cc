#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/multi_flow_env.h"
#include "src/rl/td3.h"
#include "src/train/vectorized_trainer.h"

namespace astraea {
namespace {

Td3Config EnvTd3Config(const AstraeaHyperparameters& hp) {
  Td3Config config;
  config.local_state_dim = LocalStateDim(hp);
  config.global_state_dim = kGlobalFeatures;
  config.action_dim = 1;
  config.hidden = {16, 16};
  config.batch_size = 32;
  return config;
}

TEST(SampleEpisodeTest, StaysWithinTableThreeRanges) {
  TrainingEnvRanges ranges;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const EnvEpisodeConfig config = SampleEpisode(ranges, &rng);
    EXPECT_GE(config.bandwidth, ranges.bandwidth_lo);
    EXPECT_LE(config.bandwidth, ranges.bandwidth_hi);
    EXPECT_GE(config.base_rtt, ranges.rtt_lo);
    EXPECT_LE(config.base_rtt, ranges.rtt_hi);
    EXPECT_GE(config.buffer_bdp, ranges.buffer_bdp_lo);
    EXPECT_LE(config.buffer_bdp, ranges.buffer_bdp_hi);
    EXPECT_GE(static_cast<int>(config.flows.size()), ranges.flows_lo);
    EXPECT_LE(static_cast<int>(config.flows.size()), ranges.flows_hi);
    for (const FlowSchedule& f : config.flows) {
      EXPECT_GE(f.start, 0);
    }
  }
}

TEST(MultiFlowEnvTest, CollectsTransitionsWithCorrectShapes) {
  AstraeaHyperparameters hp;
  Rng rng(2);
  Td3Trainer trainer(EnvTd3Config(hp), &rng);
  std::vector<Transition> buffer;

  EnvEpisodeConfig config;
  config.bandwidth = Mbps(60);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 1.0;
  config.episode_length = Seconds(10.0);
  config.seed = 3;
  config.flows.push_back({0, -1, 0});
  config.flows.push_back({Seconds(2.0), -1, 0});

  MultiFlowEnv env(config, hp, std::make_shared<SnapshotActorPolicy>(&trainer.actor()), &buffer,
                   0.1, &rng);
  int intervals = 0;
  while (env.AdvanceOneInterval()) {
    ++intervals;
  }
  const EpisodeStats stats = env.Finish();

  EXPECT_EQ(intervals, 2);  // 10s / 5s interval
  EXPECT_GT(stats.decisions, 50);
  ASSERT_GT(buffer.size(), 50u);

  const Transition& t = buffer[0];
  EXPECT_EQ(t.local_state.size(), static_cast<size_t>(LocalStateDim(hp)));
  EXPECT_EQ(t.global_state.size(), static_cast<size_t>(kGlobalFeatures));
  EXPECT_EQ(t.action.size(), 1u);
  EXPECT_GE(t.action[0], -1.0f);
  EXPECT_LE(t.action[0], 1.0f);
  EXPECT_GE(t.reward, -0.1f);
  EXPECT_LE(t.reward, 0.1f);
}

// Exploration noise is added to the actor's proposal and clamped before the
// action is staged for replay: at noise std 5.0 most draws land outside
// [-1, 1], so every staged action must still be in range and some must sit
// on its ends.
TEST(MultiFlowEnvTest, NoisyActionsStayInRange) {
  AstraeaHyperparameters hp;
  Rng rng(7);
  Td3Trainer trainer(EnvTd3Config(hp), &rng);
  std::vector<Transition> buffer;

  EnvEpisodeConfig config;
  config.bandwidth = Mbps(60);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 1.0;
  config.episode_length = Seconds(5.0);
  config.seed = 8;
  config.flows.push_back({0, -1, 0});

  MultiFlowEnv env(config, hp, std::make_shared<SnapshotActorPolicy>(&trainer.actor()), &buffer,
                   5.0, &rng);
  while (env.AdvanceOneInterval()) {
  }
  env.Finish();

  ASSERT_GT(buffer.size(), 50u);
  int at_ends = 0;
  for (const Transition& t : buffer) {
    ASSERT_EQ(t.action.size(), 1u);
    EXPECT_GE(t.action[0], -1.0f);
    EXPECT_LE(t.action[0], 1.0f);
    at_ends += (t.action[0] == -1.0f || t.action[0] == 1.0f) ? 1 : 0;
  }
  EXPECT_GT(at_ends, 0);
}

TEST(MultiFlowEnvTest, RewardReflectsLinkUtilization) {
  // A healthy multi-flow episode should produce positive mean reward and a
  // high mean throughput term once flows ramp up.
  AstraeaHyperparameters hp;
  Rng rng(4);
  Td3Trainer trainer(EnvTd3Config(hp), &rng);
  std::vector<Transition> buffer;

  EnvEpisodeConfig config;
  config.bandwidth = Mbps(80);
  config.base_rtt = Milliseconds(20);
  config.buffer_bdp = 2.0;
  config.episode_length = Seconds(15.0);
  config.seed = 5;
  config.flows.push_back({0, -1, 0});

  // Freeze exploration so the distilled-free actor still produces actions in
  // range; utilization comes from slow start + random actor behaviour.
  MultiFlowEnv env(config, hp, std::make_shared<SnapshotActorPolicy>(&trainer.actor()), &buffer,
                   0.0, &rng);
  while (env.AdvanceOneInterval()) {
  }
  const EpisodeStats stats = env.Finish();
  EXPECT_GT(stats.mean_r_thr, 0.2);
}

TEST(TrainerEnvTest, MultipleEnvInstancesFillBufferFaster) {
  auto buffer_fill = [](int instances) {
    VectorizedTrainerConfig config;
    config.episode_length = Seconds(6.0);
    config.num_envs = instances;
    config.seed = 9;
    VectorizedTrainer trainer(config);
    trainer.Train(1, {});
    return trainer.replay().size();
  };
  const size_t one = buffer_fill(1);
  const size_t four = buffer_fill(4);
  EXPECT_GT(four, one * 2);  // ~4x the experience per episode
}

TEST(TrainerEnvTest, TrainsWithoutCrashingAndFillsBuffer) {
  VectorizedTrainerConfig config;
  config.episode_length = Seconds(8.0);
  config.num_envs = 1;
  config.seed = 6;
  VectorizedTrainer trainer(config);
  int episodes_seen = 0;
  trainer.Train(2, [&](const EpisodeDiagnostics& d) {
    ++episodes_seen;
    EXPECT_EQ(d.episode, episodes_seen);
  });
  EXPECT_EQ(episodes_seen, 2);
  EXPECT_GT(trainer.replay().size(), 100u);
}

}  // namespace
}  // namespace astraea
