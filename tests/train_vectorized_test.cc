#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "src/train/vectorized_trainer.h"
#include "src/util/metrics.h"

namespace astraea {
namespace {

// Small enough to train a few super-episodes in well under a second, large
// enough that every mechanism (rounds, interleave, updates, eviction) runs.
VectorizedTrainerConfig FastConfig() {
  VectorizedTrainerConfig config;
  config.seed = 21;
  config.num_envs = 3;
  config.replay_capacity = 20'000;
  config.replay_shards = 4;
  config.episode_length = Seconds(2.0);
  // Pin the noise-decay horizon: with the default 0 the horizon is the first
  // Train() call's budget, so split runs would legitimately decay differently
  // (the CLI always pins this to the total --episodes target).
  config.exploration_decay_episodes = 3;
  config.hp.model_update_interval = Milliseconds(500);
  config.hp.model_update_steps = 2;
  config.hp.batch_size = 32;
  config.domain.base.bandwidth_lo = Mbps(8);
  config.domain.base.bandwidth_hi = Mbps(16);
  config.domain.base.rtt_lo = Milliseconds(20);
  config.domain.base.rtt_hi = Milliseconds(40);
  config.domain.base.buffer_bdp_lo = 0.5;
  config.domain.base.buffer_bdp_hi = 2.0;
  config.domain.base.flows_lo = 2;
  config.domain.base.flows_hi = 3;
  return config;
}

uint32_t TrainAndFingerprint(size_t workers, int episodes) {
  VectorizedTrainerConfig config = FastConfig();
  config.workers = workers;
  VectorizedTrainer trainer(config);
  trainer.Train(episodes, [](const EpisodeDiagnostics&) {});
  EXPECT_GT(trainer.total_env_steps(), 0u);
  return trainer.StateFingerprint();
}

TEST(VectorizedTrainerTest, WorkerCountDoesNotChangeResults) {
  const uint32_t one = TrainAndFingerprint(1, 2);
  const uint32_t two = TrainAndFingerprint(2, 2);
  const uint32_t four = TrainAndFingerprint(4, 2);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(VectorizedTrainerTest, KillAndResumeIsBitIdentical) {
  const std::string path = "/tmp/astraea_vec_resume_test.state";
  VectorizedTrainer straight(FastConfig());
  straight.Train(3, [](const EpisodeDiagnostics&) {});

  VectorizedTrainer first(FastConfig());
  first.Train(1, [](const EpisodeDiagnostics&) {});
  // Actors produce different transition counts (different sampled episodes),
  // so the interleave genuinely stops mid-rotation — the state being saved
  // includes a live cursor/stall pair, not a trivially-reset one.
  EXPECT_GT(first.replay().interleave_cursor() + first.replay().interleave_stalls(), 0u);
  first.SaveState(path);

  VectorizedTrainer resumed(FastConfig());
  resumed.LoadState(path);
  EXPECT_EQ(resumed.episodes_done(), 1);
  EXPECT_EQ(resumed.StateFingerprint(), first.StateFingerprint());

  // Resume with a DIFFERENT worker count: still the same end state.
  VectorizedTrainerConfig wide = FastConfig();
  wide.workers = 4;
  VectorizedTrainer resumed_wide(wide);
  resumed_wide.LoadState(path);

  resumed.Train(2, [](const EpisodeDiagnostics&) {});
  resumed_wide.Train(2, [](const EpisodeDiagnostics&) {});
  EXPECT_EQ(resumed.StateFingerprint(), straight.StateFingerprint());
  EXPECT_EQ(resumed_wide.StateFingerprint(), straight.StateFingerprint());
  std::filesystem::remove(path);
}

TEST(VectorizedTrainerTest, LoadRejectsMismatchedActorCount) {
  const std::string path = "/tmp/astraea_vec_actors_test.state";
  VectorizedTrainer trainer(FastConfig());
  trainer.Train(1, [](const EpisodeDiagnostics&) {});
  trainer.SaveState(path);

  VectorizedTrainerConfig other = FastConfig();
  other.num_envs = 4;
  VectorizedTrainer wrong(other);
  EXPECT_THROW(wrong.LoadState(path), SerializationError);
  std::filesystem::remove(path);
}

TEST(VectorizedTrainerTest, EvaluationNeverPerturbsTraining) {
  // Interleaving evals between episodes must not move the training state:
  // evaluation scores a copy of the actor and draws from no actor or
  // learner stream.
  VectorizedTrainer quiet(FastConfig());
  quiet.Train(2, [](const EpisodeDiagnostics&) {});

  VectorizedTrainer chatty(FastConfig());
  chatty.Train(1, [](const EpisodeDiagnostics&) {});
  chatty.EvaluateFairness();
  chatty.EvaluateFairness();
  chatty.Train(1, [](const EpisodeDiagnostics&) {});
  EXPECT_EQ(chatty.StateFingerprint(), quiet.StateFingerprint());
}

TEST(VectorizedTrainerTest, ActorSeedStreamsAreDecorrelated) {
  // Adjacent actor indices must yield unrelated streams: the splitmix
  // finalizer has to break the i -> i+1 structure, or actors would explore
  // in near-lockstep.
  const uint64_t base = Rng::DeriveSeed(kTrainActorSeedStream, 21);
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 64; ++i) {
    seeds.insert(Rng::DeriveSeed(base, i));
  }
  EXPECT_EQ(seeds.size(), 64u);
  // First draws of adjacent streams differ, and differ from the base stream.
  Rng r0(Rng::DeriveSeed(base, 0));
  Rng r1(Rng::DeriveSeed(base, 1));
  Rng rb(base);
  const double d0 = r0.Uniform(0.0, 1.0);
  const double d1 = r1.Uniform(0.0, 1.0);
  const double db = rb.Uniform(0.0, 1.0);
  EXPECT_NE(d0, d1);
  EXPECT_NE(d0, db);
}

TEST(VectorizedTrainerTest, SavedCheckpointLoadsAsMlpPolicy) {
  // The full production pipeline: the trainer's deployment artifact must
  // come back through MlpPolicy::LoadFromFile with the real state dims. A
  // written checkpoint once failed dims validation, and every consumer
  // silently fell back to the distilled policy.
  const std::string path = "/tmp/astraea_vec_actor_roundtrip.ckpt";
  VectorizedTrainerConfig config = FastConfig();
  VectorizedTrainer trainer(config);
  trainer.Train(1, [](const EpisodeDiagnostics&) {});
  trainer.SaveCheckpoint(path);
  const auto policy = MlpPolicy::LoadFromFile(path);
  EXPECT_EQ(policy->actor().input_size(), LocalStateDim(config.hp));
  EXPECT_EQ(policy->actor().output_size(), 1);
  std::filesystem::remove(path);
}

TEST(VectorizedTrainerTest, MetricsAreRegisteredAtConstruction) {
  VectorizedTrainer trainer(FastConfig());
  const std::string snapshot = MetricsRegistry::Global().ToJson();
  for (const char* name :
       {"train.episodes_total", "train.rounds_total", "train.env_steps_total",
        "train.actor_steps_total", "train.interleave_stalls_total", "train.replay_size",
        "train.exploration_noise", "train.round_seconds", "train.update_seconds",
        "train.episode_reward", "train.critic_loss", "train.critic_grad_norm",
        "train.actor_grad_norm", "train.replay_shard_occupancy.0",
        "train.replay_shard_occupancy.3"}) {
    EXPECT_NE(snapshot.find(name), std::string::npos) << name;
  }
}

TEST(VectorizedTrainerTest, StallCounterIncludesTheEpisodeEndTail) {
  // 2.3 s episodes with a 0.5 s update interval leave a 0.3 s tail after the
  // last round; the stalls its drain causes must reach the counter too.
  VectorizedTrainerConfig config = FastConfig();
  config.episode_length = Milliseconds(2300);
  const Counter& stalls = MetricsRegistry::Global().GetCounter("train.interleave_stalls_total");
  VectorizedTrainer trainer(config);
  const uint64_t before = stalls.Value();
  trainer.Train(3, [](const EpisodeDiagnostics&) {});
  EXPECT_GT(trainer.replay().interleave_stalls(), 0u);
  EXPECT_EQ(stalls.Value() - before, trainer.replay().interleave_stalls());
}

TEST(VectorizedTrainerTest, EpisodeHistogramsGetOneSamplePerEpisode) {
  const Histogram& critic_loss = MetricsRegistry::Global().GetHistogram("train.critic_loss");
  const Histogram& reward = MetricsRegistry::Global().GetHistogram("train.episode_reward");
  VectorizedTrainer trainer(FastConfig());
  const uint64_t losses = critic_loss.Count();
  const uint64_t rewards = reward.Count();
  trainer.Train(2, [](const EpisodeDiagnostics&) {});
  EXPECT_EQ(critic_loss.Count() - losses, 2u);
  EXPECT_EQ(reward.Count() - rewards, 2u);
}

TEST(DomainSamplerTest, TableThreeConsumesNoExtraDraws) {
  // A TableThree sampler must leave the Rng stream exactly where the base
  // SampleEpisode left it, so Table-3 training draws exactly the paper's
  // episode distribution and no extra randomness.
  DomainRanges ranges = DomainRanges::TableThree();
  DomainSampler sampler(ranges);
  Rng a(77);
  Rng b(77);
  const EnvEpisodeConfig via_sampler = sampler.Sample(&a);
  EnvEpisodeConfig direct = SampleEpisode(ranges.base, &b);
  direct.episode_length = ranges.episode_length;
  EXPECT_EQ(via_sampler.bandwidth, direct.bandwidth);
  EXPECT_EQ(via_sampler.base_rtt, direct.base_rtt);
  EXPECT_EQ(via_sampler.seed, direct.seed);
  EXPECT_EQ(via_sampler.flows.size(), direct.flows.size());
  // Identical next draw == identical stream position.
  EXPECT_EQ(a.Uniform(0.0, 1.0), b.Uniform(0.0, 1.0));
}

TEST(DomainSamplerTest, SamplingIsDeterministic) {
  DomainSampler sampler(DomainRanges::Extended());
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 50; ++i) {
    const DomainSampler::Draw da = sampler.SampleDraw(&a);
    const DomainSampler::Draw db = sampler.SampleDraw(&b);
    EXPECT_EQ(da.family, db.family);
    EXPECT_EQ(da.config.bandwidth, db.config.bandwidth);
    EXPECT_EQ(da.config.random_loss, db.config.random_loss);
    EXPECT_EQ(da.config.seed, db.config.seed);
  }
}

TEST(DomainSamplerTest, ExtendedCoversEveryScenarioFamily) {
  DomainRanges ranges = DomainRanges::Extended();
  DomainSampler sampler(ranges);
  Rng rng(123);
  std::set<std::string> families;
  bool saw_loss = false;
  for (int i = 0; i < 400; ++i) {
    const DomainSampler::Draw draw = sampler.SampleDraw(&rng);
    const size_t plus = draw.family.find('+');
    const std::string base_family = draw.family.substr(0, plus);
    families.insert(base_family);
    if (plus != std::string::npos) {
      saw_loss = true;
      EXPECT_GE(draw.config.random_loss, ranges.loss_lo);
      EXPECT_LE(draw.config.random_loss, ranges.loss_hi);
    }
    EXPECT_GE(draw.config.bandwidth, ranges.base.bandwidth_lo);
    EXPECT_LE(draw.config.bandwidth, ranges.base.bandwidth_hi);
    EXPECT_GE(static_cast<int>(draw.config.flows.size()), ranges.base.flows_lo);
    EXPECT_LE(static_cast<int>(draw.config.flows.size()), ranges.base.flows_hi);
    EXPECT_EQ(draw.config.episode_length, ranges.episode_length);
    if (base_family == "lte-trace") {
      EXPECT_NE(draw.config.trace, nullptr);
    } else {
      EXPECT_EQ(draw.config.trace, nullptr);
    }
  }
  EXPECT_TRUE(families.count("droptail"));
  EXPECT_TRUE(families.count("red"));
  EXPECT_TRUE(families.count("codel"));
  EXPECT_TRUE(families.count("lte-trace"));
  EXPECT_TRUE(saw_loss);
}

}  // namespace
}  // namespace astraea
