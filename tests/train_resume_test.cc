// Crash-safe training tests: kill-and-resume determinism and crash recovery
// at every checkpoint-path failpoint. These are the two headline guarantees
// of the checkpoint subsystem:
//
//   1. Training k episodes, dying via failpoint, and resuming for the rest
//      produces bit-identical weights, optimizer state, replay buffer and
//      diagnostics to a run that was never interrupted.
//   2. A crash injected at any step of the checkpoint commit protocol leaves
//      a valid, loadable checkpoint on disk (the old one or the new one —
//      never a corrupt one).
//
// Crashes are real: the child process dies with _exit() inside a failpoint,
// discarding all in-memory state, exactly like an OOM-kill would.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/train/vectorized_trainer.h"
#include "src/util/checkpoint.h"
#include "src/util/failpoint.h"

namespace astraea {
namespace {

// Small but real training setup: short episodes, frequent model updates and
// a small batch so TD3 gradient steps (and therefore optimizer/target-net
// state) are exercised from the first episode. Two actors, so the state also
// carries a live interleave cursor and more than one actor stream.
VectorizedTrainerConfig TestConfig() {
  VectorizedTrainerConfig config;
  config.seed = 21;
  config.episode_length = Seconds(2.0);
  config.replay_capacity = 8192;
  config.num_envs = 2;
  config.exploration_decay_episodes = 6;  // the total across both test runs
  config.hp.history_length = 2;           // smaller nets -> smaller checkpoints
  config.hp.batch_size = 16;
  config.hp.model_update_interval = Seconds(0.5);
  config.hp.model_update_steps = 2;
  return config;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

struct EpisodeRecord {
  int episode;
  double mean_reward;
  double critic_loss;
  int64_t updates;
};

TEST(TrainResumeTest, SaveLoadRoundTripIsByteIdentical) {
  const std::string p1 = "/tmp/astraea_state_rt1.ckpt";
  const std::string p2 = "/tmp/astraea_state_rt2.ckpt";
  VectorizedTrainer a(TestConfig());
  a.Train(2, {});
  a.SaveState(p1);

  VectorizedTrainer b(TestConfig());
  b.LoadState(p1);
  EXPECT_EQ(b.episodes_done(), 2);
  b.SaveState(p2);
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
}

TEST(TrainResumeTest, LoadFromCorruptStateThrows) {
  const std::string path = "/tmp/astraea_state_corrupt.ckpt";
  VectorizedTrainer a(TestConfig());
  a.SaveState(path);
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() / 2);
  WriteFileBytes(path, bytes);
  VectorizedTrainer b(TestConfig());
  EXPECT_THROW(b.LoadState(path), SerializationError);
}

// Strided fuzz over a full "ASTV" training-state checkpoint: truncations and
// bit flips at every stride offset must all throw, never load.
TEST(TrainResumeTest, FuzzedStateCheckpointAlwaysThrows) {
  const std::string path = "/tmp/astraea_state_fuzz.ckpt";
  const std::string mutant = "/tmp/astraea_state_fuzz_mutant.ckpt";
  VectorizedTrainer a(TestConfig());
  a.Train(1, {});
  a.SaveState(path);
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 1000u);

  const size_t stride = bytes.size() / 64 + 1;
  for (size_t off = 0; off < bytes.size(); off += stride) {
    {
      WriteFileBytes(mutant, bytes.substr(0, off));
      VectorizedTrainer b(TestConfig());
      EXPECT_THROW(b.LoadState(mutant), SerializationError) << "truncated at " << off;
    }
    {
      std::string corrupted = bytes;
      corrupted[off] = static_cast<char>(corrupted[off] ^ 0x40);
      WriteFileBytes(mutant, corrupted);
      VectorizedTrainer b(TestConfig());
      EXPECT_THROW(b.LoadState(mutant), SerializationError) << "bit flip at " << off;
    }
  }
}

// Headline determinism test: 6 straight episodes vs. 3 episodes, a hard
// failpoint kill, and a 3-episode resume from the last durable checkpoint.
// Final serialized training state must match byte for byte, and per-episode
// diagnostics after the resume point must be bit-identical doubles.
TEST(TrainResumeTest, KillAndResumeIsBitIdentical) {
  const std::string straight_path = "/tmp/astraea_straight.state";
  const std::string resumed_path = "/tmp/astraea_resumed.state";
  const std::string ck_prefix = "/tmp/astraea_killrun.state-";

  // Uninterrupted reference run: 6 episodes.
  std::vector<EpisodeRecord> straight;
  {
    VectorizedTrainer a(TestConfig());
    a.Train(6, [&](const EpisodeDiagnostics& d) {
      straight.push_back({d.episode, d.env.mean_reward, d.td3.critic_loss, d.td3.updates});
    });
    a.SaveState(straight_path);
  }
  ASSERT_EQ(straight.size(), 6u);

  // Killed run: checkpoint after every episode; the failpoint hard-kills the
  // process at the top of episode 4, so the checkpoint for episode 3 is the
  // newest durable state.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    failpoint::Configure("train.episode=4");
    VectorizedTrainer b(TestConfig());
    b.Train(6, [&](const EpisodeDiagnostics& d) {
      b.SaveState(ck_prefix + std::to_string(d.episode));
    });
    ::_exit(0);  // unreachable if the failpoint fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), failpoint::kCrashExitCode) << "child did not die at failpoint";

  // Resume in a fresh process image (this one): load episode-3 state, train
  // the remaining 3 episodes, compare everything.
  std::vector<EpisodeRecord> resumed;
  {
    VectorizedTrainer c(TestConfig());
    c.LoadState(ck_prefix + "3");
    EXPECT_EQ(c.episodes_done(), 3);
    c.Train(3, [&](const EpisodeDiagnostics& d) {
      resumed.push_back({d.episode, d.env.mean_reward, d.td3.critic_loss, d.td3.updates});
    });
    c.SaveState(resumed_path);
  }
  ASSERT_EQ(resumed.size(), 3u);
  for (size_t i = 0; i < resumed.size(); ++i) {
    const EpisodeRecord& r = resumed[i];
    const EpisodeRecord& s = straight[3 + i];
    EXPECT_EQ(r.episode, s.episode);
    EXPECT_EQ(r.mean_reward, s.mean_reward) << "episode " << r.episode;
    EXPECT_EQ(r.critic_loss, s.critic_loss) << "episode " << r.episode;
    EXPECT_EQ(r.updates, s.updates) << "episode " << r.episode;
  }

  // The full serialized state — actor, critics, targets, optimizers, sharded
  // replay and its interleave cursor, every RNG stream, counters — is
  // byte-identical.
  EXPECT_EQ(ReadFileBytes(straight_path), ReadFileBytes(resumed_path));
}

// Crash-recovery: inject a hard kill at every failpoint in the checkpoint
// commit protocol; after each, a valid checkpoint (old or new) must load.
TEST(TrainResumeTest, CrashAtEveryCommitStepLeavesLoadableCheckpoint) {
  struct SiteCase {
    const char* site;
    bool expect_new;  // after the crash, is the NEW payload visible?
  };
  const SiteCase cases[] = {
      {"ckpt.commit.begin", false},
      {"ckpt.commit.torn_write", false},
      {"ckpt.commit.before_fsync", false},
      {"ckpt.commit.before_rename", false},
      // rename already happened; only the directory fsync was outstanding.
      {"ckpt.commit.before_dirsync", true},
  };

  auto write_marker = [](const std::string& path, uint32_t marker) {
    CheckpointWriter ckpt(path);
    ckpt.payload()->WriteU32(marker);
    std::vector<float> bulk(512, static_cast<float>(marker));
    ckpt.payload()->WriteFloatVec(bulk);
    ckpt.Commit();
  };
  auto read_marker = [](const std::string& path) {
    CheckpointReader ckpt(path);
    const uint32_t marker = ckpt.payload()->ReadU32();
    const std::vector<float> bulk = ckpt.payload()->ReadFloatVec();
    EXPECT_EQ(bulk.size(), 512u);
    for (float f : bulk) {
      EXPECT_EQ(f, static_cast<float>(marker));
    }
    return marker;
  };

  for (const SiteCase& c : cases) {
    SCOPED_TRACE(c.site);
    const std::string path = std::string("/tmp/astraea_crash_") + c.site + ".ckpt";
    write_marker(path, 1);  // the pre-existing checkpoint

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      failpoint::Configure(std::string(c.site) + "=1");
      CheckpointWriter ckpt(path);
      ckpt.payload()->WriteU32(2);
      std::vector<float> bulk(512, 2.0f);
      ckpt.payload()->WriteFloatVec(bulk);
      ckpt.Commit();  // dies inside
      ::_exit(0);     // unreachable
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), failpoint::kCrashExitCode);

    // Never corrupt: the file must load, and must be exactly old or new.
    uint32_t marker = 0;
    EXPECT_NO_THROW(marker = read_marker(path));
    EXPECT_EQ(marker, c.expect_new ? 2u : 1u);
  }
}

}  // namespace
}  // namespace astraea
