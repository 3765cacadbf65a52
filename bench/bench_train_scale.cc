// Vectorized-training scaling (DESIGN.md §14 acceptance): the same training
// run — identical seed, envs, episodes — executed at 1, 2 and 4 workers must
// produce a bit-identical final state fingerprint, and on a multi-core host
// the 4-worker run must collect env steps at least 3x faster than serial.
//
// Two checks fail the run. The fingerprint check is unconditional (it holds
// on any host, including nproc=1 CI sandboxes). The speedup check applies
// only when the host has >= 4 cores, mirroring the bench_sim_scale /
// serve-overload precedent: a single-core box time-slices the workers and
// measures nothing. On hosts with >= 4 cores the 3x floor fails today: the
// learner takes about 79% of training time on one thread, so more actor
// workers alone cap near 1.27x.
//
// Prints the record's metrics and writes it to BENCH_train_scale.json (--out
// PATH overrides). --quick shrinks episodes for CI smoke.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/bench_record.h"
#include "src/eval/table.h"
#include "src/train/vectorized_trainer.h"

namespace astraea {
namespace {

using Clock = std::chrono::steady_clock;

struct ScaleRun {
  size_t workers = 0;
  uint64_t env_steps = 0;
  double wall_s = 0.0;
  double steps_per_s = 0.0;
  uint32_t fingerprint = 0;
};

VectorizedTrainerConfig BenchConfig(int episodes) {
  VectorizedTrainerConfig config;
  config.seed = 11;
  config.num_envs = 4;
  config.replay_capacity = 50'000;
  config.episode_length = Seconds(4.0);
  config.exploration_decay_episodes = episodes;
  // Short model-update rounds: many barriers per episode, so the interleave
  // and snapshot machinery is exercised, not amortized away.
  config.hp.model_update_interval = Milliseconds(500);
  config.hp.model_update_steps = 2;
  config.hp.batch_size = 64;
  // Narrow, low-rate links keep per-step simulation cost small and uniform.
  config.domain.base.bandwidth_lo = Mbps(12);
  config.domain.base.bandwidth_hi = Mbps(24);
  config.domain.base.rtt_lo = Milliseconds(20);
  config.domain.base.rtt_hi = Milliseconds(50);
  config.domain.base.buffer_bdp_lo = 0.5;
  config.domain.base.buffer_bdp_hi = 2.0;
  return config;
}

ScaleRun RunAt(size_t workers, int episodes) {
  VectorizedTrainerConfig config = BenchConfig(episodes);
  config.workers = workers;
  VectorizedTrainer trainer(config);
  const auto start = Clock::now();
  trainer.Train(episodes, [](const EpisodeDiagnostics&) {});
  ScaleRun run;
  run.workers = workers;
  run.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  run.env_steps = trainer.total_env_steps();
  run.steps_per_s = static_cast<double>(run.env_steps) / run.wall_s;
  run.fingerprint = trainer.StateFingerprint();
  return run;
}

int Main(int argc, char** argv) {
  BenchRecord record("train_scale", argc, argv);
  if (!record.args_ok()) {
    return 1;
  }
  const int episodes = record.quick() ? 2 : 6;
  const unsigned host_cores = std::thread::hardware_concurrency();
  PrintBenchHeader("TrainScale",
                   "Vectorized actor/learner scaling and worker-count bit-identity");
  std::printf("  host cores: %u, envs: 4, episodes: %d\n", host_cores, episodes);

  std::vector<ScaleRun> runs;
  bool fingerprints_identical = true;
  std::string fingerprints;
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    runs.push_back(RunAt(workers, episodes));
    const ScaleRun& run = runs.back();
    std::printf("  workers %zu: %8llu env steps in %6.2fs (%8.0f steps/s), fingerprint %08x\n",
                run.workers, static_cast<unsigned long long>(run.env_steps), run.wall_s,
                run.steps_per_s, run.fingerprint);
    std::fflush(stdout);
    const std::string key = "runs." + std::to_string(workers) + ".";
    record.Metric(key + "env_steps", static_cast<double>(run.env_steps), "count");
    record.Metric(key + "wall_s", run.wall_s, "s");
    record.Metric(key + "steps_per_s", run.steps_per_s, "steps/s");
    fingerprints_identical &= run.fingerprint == runs.front().fingerprint &&
                              run.env_steps == runs.front().env_steps;
    char fingerprint[32];
    std::snprintf(fingerprint, sizeof(fingerprint), "%s%08x at %zu", workers > 1 ? ", " : "",
                  run.fingerprint, workers);
    fingerprints += fingerprint;
  }
  const double speedup = runs.back().steps_per_s / runs.front().steps_per_s;
  record.Metric("speedup_4v1", speedup, "x");
  record.PrintMetrics();
  record.Check("fingerprints_identical", fingerprints_identical, fingerprints);
  record.Check("speedup_4v1_at_least_3x", host_cores < 4 || speedup >= 3.0,
               ConsoleTable::Num(speedup) + "x on " + std::to_string(host_cores) + " cores" +
                   (host_cores < 4 ? " (applies from 4 cores)" : ""));
  return record.Finish();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
