#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/nn/mlp.h"
#include "src/rl/replay_buffer.h"
#include "src/rl/td3.h"

namespace astraea {
namespace {

TEST(ReplayBufferTest, RingOverwrite) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) {
    Transition t;
    t.reward = static_cast<float>(i);
    buf.Add(std::move(t));
  }
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.total_added(), 5u);
  // Entries 0,1 were overwritten by 3,4.
  float sum = 0.0f;
  for (size_t i = 0; i < buf.size(); ++i) {
    sum += buf.at(i).reward;
  }
  EXPECT_FLOAT_EQ(sum, 2.0f + 3.0f + 4.0f);
}

TEST(ReplayBufferTest, SampleIndicesInRange) {
  ReplayBuffer buf(100);
  for (int i = 0; i < 10; ++i) {
    buf.Add(Transition{});
  }
  Rng rng(1);
  const auto idx = buf.SampleIndices(1000, &rng);
  for (size_t i : idx) {
    EXPECT_LT(i, 10u);
  }
}

TEST(ReplayBufferTest, SamplingIsRoughlyUniform) {
  ReplayBuffer buf(16);
  for (int i = 0; i < 16; ++i) {
    buf.Add(Transition{});
  }
  Rng rng(2);
  std::vector<int> counts(16, 0);
  for (size_t i : buf.SampleIndices(16000, &rng)) {
    ++counts[i];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 1000, 150);
  }
}

Td3Config SmallConfig() {
  Td3Config config;
  config.local_state_dim = 3;
  config.global_state_dim = 2;
  config.action_dim = 1;
  config.hidden = {16, 16};
  config.batch_size = 32;
  config.gamma = 0.9f;
  return config;
}

TEST(Td3Test, ActIsDeterministicAndBounded) {
  Rng rng(1);
  Td3Trainer trainer(SmallConfig(), &rng);
  const std::vector<float> s = {0.1f, 0.2f, 0.3f};
  const auto a1 = trainer.actor().Infer(s);
  const auto a2 = trainer.actor().Infer(s);
  EXPECT_EQ(a1, a2);
  EXPECT_GE(a1[0], -1.0f);
  EXPECT_LE(a1[0], 1.0f);
}

TEST(Td3Test, UpdateIsNoOpWhenBufferSmall) {
  Rng rng(3);
  Td3Trainer trainer(SmallConfig(), &rng);
  ReplayBuffer buf(100);
  buf.Add(Transition{{0, 0}, {0, 0, 0}, {0}, 0.0f, {0, 0}, {0, 0, 0}, false});
  const auto diag = trainer.Update(buf, &rng);
  EXPECT_EQ(diag.updates, 0);
}

// A one-step bandit: reward = -(a - 0.5)^2. The optimal deterministic policy
// outputs 0.5 regardless of state. TD3 should find it.
TEST(Td3Test, SolvesContinuousBandit) {
  Rng rng(4);
  Td3Config config = SmallConfig();
  config.gamma = 0.0f;  // bandit: no bootstrapping
  Td3Trainer trainer(config, &rng);
  ReplayBuffer buf(20'000);

  const std::vector<float> g = {0.0f, 0.0f};
  const std::vector<float> s = {0.1f, -0.2f, 0.3f};
  for (int i = 0; i < 4000; ++i) {
    const float a = static_cast<float>(rng.Uniform(-1.0, 1.0));
    Transition t;
    t.global_state = g;
    t.local_state = s;
    t.action = {a};
    t.reward = -(a - 0.5f) * (a - 0.5f);
    t.next_global_state = g;
    t.next_local_state = s;
    t.terminal = true;
    buf.Add(std::move(t));
  }
  for (int i = 0; i < 1500; ++i) {
    trainer.Update(buf, &rng);
  }
  const float a_star = trainer.actor().Infer(s)[0];
  EXPECT_NEAR(a_star, 0.5f, 0.15f);
}

// The critic should use the *global* state: two transitions identical in
// local state but different in global state carry different rewards; after
// training, the critic should separate them.
TEST(Td3Test, CriticExploitsGlobalState) {
  Rng rng(5);
  Td3Config config = SmallConfig();
  config.gamma = 0.0f;
  Td3Trainer trainer(config, &rng);
  ReplayBuffer buf(10'000);

  const std::vector<float> s = {0.0f, 0.0f, 0.0f};
  for (int i = 0; i < 2000; ++i) {
    const bool good = (i % 2 == 0);
    Transition t;
    t.global_state = good ? std::vector<float>{1.0f, 0.0f} : std::vector<float>{0.0f, 1.0f};
    t.local_state = s;
    t.action = {0.0f};
    t.reward = good ? 1.0f : -1.0f;
    t.next_global_state = t.global_state;
    t.next_local_state = s;
    t.terminal = true;
    buf.Add(std::move(t));
  }
  for (int i = 0; i < 800; ++i) {
    trainer.Update(buf, &rng);
  }
  const std::vector<float> in_good = {1.0f, 0.0f, 0, 0, 0, 0.0f};
  const std::vector<float> in_bad = {0.0f, 1.0f, 0, 0, 0, 0.0f};
  const float q_good = trainer.critic1().Infer(in_good)[0];
  const float q_bad = trainer.critic1().Infer(in_bad)[0];
  EXPECT_GT(q_good, q_bad + 0.5f);
}

// The batched Update (flat ForwardBatch/BackwardBatch kernels) must match the
// per-sample reference path: identical RNG consumption, near-identical floats.
TEST(Td3Test, BatchedUpdateMatchesReferencePath) {
  Td3Config config = SmallConfig();
  config.batch_size = 48;

  Rng init_a(21);
  Td3Trainer batched(config, &init_a);
  Rng init_b(21);
  Td3Trainer reference(config, &init_b);

  ReplayBuffer buf(4096);
  Rng data_rng(22);
  for (int i = 0; i < 600; ++i) {
    Transition t;
    t.global_state = {static_cast<float>(data_rng.Uniform(-1, 1)),
                      static_cast<float>(data_rng.Uniform(-1, 1))};
    t.local_state = {static_cast<float>(data_rng.Uniform(-1, 1)),
                     static_cast<float>(data_rng.Uniform(-1, 1)),
                     static_cast<float>(data_rng.Uniform(-1, 1))};
    t.action = {static_cast<float>(data_rng.Uniform(-1, 1))};
    t.reward = static_cast<float>(data_rng.Uniform(-1, 1));
    t.next_global_state = t.global_state;
    t.next_local_state = t.local_state;
    t.terminal = data_rng.Bernoulli(0.1);
    buf.Add(std::move(t));
  }

  Rng update_a(23);
  Rng update_b(23);
  for (int step = 0; step < 10; ++step) {
    const Td3Diagnostics da = batched.Update(buf, &update_a);
    const Td3Diagnostics db = reference.UpdateReference(buf, &update_b);
    EXPECT_NEAR(da.critic_loss, db.critic_loss, 1e-4) << "step " << step;
    EXPECT_NEAR(da.actor_objective, db.actor_objective, 1e-4) << "step " << step;
  }

  const auto pa = batched.actor().params();
  const auto pb = reference.actor().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_NEAR(pa[i], pb[i], 1e-4) << "actor param " << i;
  }
  const auto ca = batched.critic1().params();
  const auto cb = reference.critic1().params();
  for (size_t i = 0; i < ca.size(); ++i) {
    ASSERT_NEAR(ca[i], cb[i], 1e-4) << "critic param " << i;
  }
}

TEST(Td3Test, SaveLoadActorRoundTrip) {
  Rng rng(6);
  Td3Trainer trainer(SmallConfig(), &rng);
  const std::vector<float> s = {0.3f, 0.3f, 0.3f};
  const std::string path = "/tmp/astraea_td3_actor.ckpt";
  trainer.SaveActor(path);

  // SaveActor writes what LoadActorFile reads: the same network.
  const Mlp loaded = LoadActorFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.dims(), trainer.actor().dims());
  EXPECT_TRUE(std::equal(loaded.params().begin(), loaded.params().end(),
                         trainer.actor().params().begin(), trainer.actor().params().end()));
  EXPECT_EQ(loaded.Infer(s)[0], trainer.actor().Infer(s)[0]);
}

}  // namespace
}  // namespace astraea
