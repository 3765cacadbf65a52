// astraea_train: offline multi-agent training (paper §3.4 / §4 / Appendix A).
//
//   astraea_train --episodes 80 --out models/astraea_policy.ckpt [--seed 7]
//                 [--episode-len 30] [--envs 4] [--print-config]
//                 [--workers N] [--shards 8] [--randomize]
//                 [--resume models/astraea_policy.ckpt.state-40]
//                 [--checkpoint-every 10] [--keep 3]
//                 [--metrics-out train_metrics.jsonl]
//
// Training runs the vectorized trainer (DESIGN.md §14): --envs actor
// environments on --workers threads (default 1) feeding one TD3 learner
// through a sharded replay buffer with a deterministic interleave — results
// are bit-identical for every worker count, so --workers only changes
// wall-clock.
// --randomize widens episode sampling from the Table-3 ranges to the full
// scenario-family domain (loss, RED/CoDel, LTE-like rate traces).
//
// --metrics-out appends one JSON object per episode (reward components, TD
// losses, gradient norms, replay occupancy) plus a final registry snapshot —
// the machine-readable twin of the stdout table. A line that cannot be
// written ends the run with exit 1.
//
// Crash safety: every --checkpoint-every episodes the full training state
// (networks, optimizers, replay buffer, RNG streams, actor cursors) is
// written atomically to "<out>.state-<episode>", keeping the last --keep
// files. --episodes is the TOTAL target, so after a crash, rerunning the
// same command with --resume pointing at the newest state file continues to
// the same end state — bit-identical to a run that was never interrupted.
// A checkpoint or state file that cannot be written ends the run with exit 1
// and `cannot write <path>`.
//
// The --out checkpoint is a candidate: `astraea_promote --install` scores it
// against the installed model and replaces that file only on an accept.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <string>

#include "src/train/vectorized_trainer.h"
#include "src/util/cli_flags.h"
#include "src/util/metrics.h"

namespace astraea {
namespace {

[[noreturn]] void CannotWrite(const std::string& path) {
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  std::exit(1);
}

// Runs save(), which writes `path`; a file that cannot be written ends the
// run like an unwritable metrics file.
template <typename Save>
void SaveOrExit(const std::string& path, Save save) {
  try {
    save();
  } catch (const SerializationError&) {
    CannotWrite(path);
  }
}

struct EpisodePrinter {
  std::FILE* metrics_file = nullptr;
  std::string metrics_path;
  double best_jain = -1.0;
  std::function<void(const std::string&)> save_policy;   // called on eval improvements
  std::function<std::string(int)> save_state;            // returns the state path
  int checkpoint_every = 10;
  std::string out;

  void operator()(const EpisodeDiagnostics& d) {
    if (metrics_file != nullptr) {
      std::fprintf(metrics_file,
                   "{\"episode\":%d,\"mean_reward\":%.6g,\"r_thr\":%.6g,\"r_lat\":%.6g,"
                   "\"r_loss\":%.6g,\"r_fair\":%.6g,\"r_stab\":%.6g,\"decisions\":%d,"
                   "\"critic_loss\":%.6g,\"actor_objective\":%.6g,\"critic_grad_norm\":%.6g,"
                   "\"actor_grad_norm\":%.6g,\"td3_updates\":%lld,\"replay_size\":%zu,"
                   "\"exploration_noise\":%.6g,\"eval_jain\":%.6g}\n",
                   d.episode, d.env.mean_reward, d.env.mean_r_thr, d.env.mean_r_lat,
                   d.env.mean_r_loss, d.env.mean_r_fair, d.env.mean_r_stab, d.env.decisions,
                   d.td3.critic_loss, d.td3.actor_objective, d.td3.critic_grad_norm,
                   d.td3.actor_grad_norm, static_cast<long long>(d.td3.updates), d.replay_size,
                   d.exploration_noise, d.eval_jain);
      // Flushed per episode, so each episode survives a later crash.
      if (std::fflush(metrics_file) != 0 || std::ferror(metrics_file) != 0) {
        CannotWrite(metrics_path);
      }
    }
    std::printf("%-8d %-12.4f %-10.4f %-10.3f %-12.5f ", d.episode, d.env.mean_reward,
                d.env.mean_r_fair, d.env.mean_r_thr, d.td3.critic_loss);
    if (d.eval_jain >= 0.0) {
      std::printf("%-10.4f", d.eval_jain);
      if (d.eval_jain > best_jain) {
        best_jain = d.eval_jain;
        save_policy(out);
        std::printf("  [checkpoint saved]");
      }
    }
    if (checkpoint_every > 0 && d.episode % checkpoint_every == 0) {
      std::printf("  [state %s]", save_state(d.episode).c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
};

int Main(int argc, char** argv) {
  int episodes = 60;
  int env_instances = 1;
  double episode_len_s = 30.0;
  std::string out = "models/astraea_policy.ckpt";
  std::string resume;
  int checkpoint_every = 10;
  int keep = 3;
  uint64_t seed = 7;
  bool print_config = false;
  std::string metrics_out;
  int workers = 1;
  int shards = 8;
  bool randomize = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--episodes") == 0) {
      episodes = static_cast<int>(cli::ParseInt("--episodes", next(), 1, 1'000'000));
    } else if (std::strcmp(argv[i], "--episode-len") == 0) {
      episode_len_s = cli::ParseDouble("--episode-len", next(), 0.1, 36000.0);
    } else if (std::strcmp(argv[i], "--envs") == 0) {
      env_instances = static_cast<int>(cli::ParseInt("--envs", next(), 1, 64));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<int>(cli::ParseInt("--workers", next(), 1, 256));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<int>(cli::ParseInt("--shards", next(), 1, 1024));
    } else if (std::strcmp(argv[i], "--randomize") == 0) {
      randomize = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = next();
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = next();
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      checkpoint_every = static_cast<int>(cli::ParseInt("--checkpoint-every", next(), 0, 1'000'000));
    } else if (std::strcmp(argv[i], "--keep") == 0) {
      keep = static_cast<int>(cli::ParseInt("--keep", next(), 1, 1000));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = cli::ParseU64("--seed", next());
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metrics_out = next();
    } else if (std::strcmp(argv[i], "--print-config") == 0) {
      print_config = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  if (print_config) {
    const VectorizedTrainerConfig config;
    std::printf("%s", DescribeConfig(config.hp, config.domain.base).c_str());
    return 0;
  }

  std::FILE* metrics_file = nullptr;
  if (!metrics_out.empty()) {
    metrics_file = std::fopen(metrics_out.c_str(), "w");
    if (metrics_file == nullptr) {
      CannotWrite(metrics_out);
    }
  }

  // Last-K rotation of full-state checkpoints written by this process. Files
  // from a previous (crashed) run are left alone — the one being resumed
  // from must survive, and a rerun regenerates the same episodes anyway.
  std::deque<std::string> state_files;
  auto rotate = [&](const std::string& path) {
    state_files.push_back(path);
    while (static_cast<int>(state_files.size()) > keep) {
      std::remove(state_files.front().c_str());
      state_files.pop_front();
    }
    return path;
  };

  EpisodePrinter printer;
  printer.metrics_file = metrics_file;
  printer.metrics_path = metrics_out;
  printer.checkpoint_every = checkpoint_every;
  printer.out = out;

  VectorizedTrainerConfig config;
  config.seed = seed;
  config.episode_length = Seconds(episode_len_s);
  config.num_envs = env_instances;
  config.workers = static_cast<size_t>(workers);
  config.replay_shards = static_cast<size_t>(shards);
  config.domain = randomize ? DomainRanges::Extended() : DomainRanges::TableThree();
  config.exploration_decay_episodes = episodes;

  VectorizedTrainer trainer(config);
  if (!resume.empty()) {
    try {
      trainer.LoadState(resume);
    } catch (const SerializationError& e) {
      std::fprintf(stderr, "cannot resume from %s: %s\n", resume.c_str(), e.what());
      return 1;
    }
    std::printf("resumed from %s at episode %d\n", resume.c_str(), trainer.episodes_done());
  }
  const int remaining = episodes - trainer.episodes_done();
  if (remaining <= 0) {
    std::printf("checkpoint already at episode %d >= target %d; nothing to do\n",
                trainer.episodes_done(), episodes);
    return 0;
  }
  std::printf(
      "training Astraea to episode %d (%d to go, %d envs, %d workers, %s domain, episode "
      "length %.0fs)\n",
      episodes, remaining, env_instances, workers, randomize ? "extended" : "table-3",
      episode_len_s);
  std::printf("%-8s %-12s %-10s %-10s %-12s %-10s\n", "episode", "mean_reward", "r_fair",
              "r_thr", "critic_loss", "eval_jain");
  printer.save_policy = [&trainer](const std::string& path) {
    SaveOrExit(path, [&] { trainer.SaveCheckpoint(path); });
  };
  printer.save_state = [&trainer, &out, &rotate](int episode) {
    const std::string path = out + ".state-" + std::to_string(episode);
    SaveOrExit(path, [&] { trainer.SaveState(path); });
    return rotate(path);
  };
  trainer.Train(remaining, std::ref(printer));
  if (checkpoint_every > 0 && trainer.episodes_done() % checkpoint_every != 0) {
    printer.save_state(trainer.episodes_done());
  }
  if (printer.best_jain < 0.0) {
    SaveOrExit(out, [&] { trainer.SaveCheckpoint(out); });
  }
  std::printf("state fingerprint: %08x (env steps %llu)\n", trainer.StateFingerprint(),
              static_cast<unsigned long long>(trainer.total_env_steps()));

  if (metrics_file != nullptr) {
    // Final line: the whole process-wide registry (train.* counters, gauges
    // and histograms, inference.* if any ran) as one JSON object.
    std::fprintf(metrics_file, "{\"registry\":%s}\n",
                 MetricsRegistry::Global().ToJson().c_str());
    const bool failed = std::ferror(metrics_file) != 0;
    if (std::fclose(metrics_file) != 0 || failed) {
      CannotWrite(metrics_out);
    }
  }
  std::printf("done at episode %d; best eval Jain %.4f; checkpoint: %s\n",
              trainer.episodes_done(), printer.best_jain, out.c_str());
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
