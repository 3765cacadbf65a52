// Vectorized-training scaling (DESIGN.md §14 acceptance): the same training
// run — identical seed, envs, episodes — executed at 1, 2 and 4 workers must
// produce a bit-identical final state fingerprint, and on a multi-core host
// the 4-worker run must collect env steps at least 3x faster than serial.
//
// The fingerprint check is unconditional (it holds on any host, including
// nproc=1 CI sandboxes). The speedup assertion only applies when the host
// actually has >= 4 cores, mirroring the bench_sim_scale / serve-overload
// precedent: a single-core box time-slices the workers and measures nothing.
//
// Prints a table and emits BENCH_train_scale.json (--out=PATH overrides).
// --quick shrinks episodes for CI smoke. Exit is nonzero iff fingerprints
// diverge — the determinism claim, not the throughput one, is the hard gate.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

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
  std::string out_path = "BENCH_train_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  const bool quick = QuickMode(argc, argv);
  const int episodes = quick ? 2 : 6;
  const unsigned host_cores = std::thread::hardware_concurrency();
  PrintBenchHeader("TrainScale",
                   "Vectorized actor/learner scaling and worker-count bit-identity");
  std::printf("  host cores: %u, envs: 4, episodes: %d\n", host_cores, episodes);

  std::vector<ScaleRun> runs;
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    runs.push_back(RunAt(workers, episodes));
    const ScaleRun& run = runs.back();
    std::printf("  workers %zu: %8llu env steps in %6.2fs (%8.0f steps/s), fingerprint %08x\n",
                run.workers, static_cast<unsigned long long>(run.env_steps), run.wall_s,
                run.steps_per_s, run.fingerprint);
    std::fflush(stdout);
  }

  bool fingerprints_identical = true;
  for (const ScaleRun& run : runs) {
    fingerprints_identical &= run.fingerprint == runs.front().fingerprint &&
                              run.env_steps == runs.front().env_steps;
  }
  const double speedup = runs.back().steps_per_s / runs.front().steps_per_s;
  const bool speedup_applicable = host_cores >= 4;
  const bool speedup_ok = !speedup_applicable || speedup >= 3.0;

  ConsoleTable table({"metric", "value"});
  for (const ScaleRun& run : runs) {
    table.AddRow({"steps/s @ " + std::to_string(run.workers) + " workers",
                  ConsoleTable::Num(run.steps_per_s, 0)});
  }
  table.AddRow({"4-vs-1 worker speedup", ConsoleTable::Num(speedup, 2) +
                                             (speedup_applicable ? "" : " (host < 4 cores)")});
  table.AddRow({"1/2/4-worker state", fingerprints_identical ? "bit-identical" : "DIVERGED"});
  table.Print();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"quick\": %s,\n  \"host_cores\": %u,\n  \"envs\": 4,\n"
               "  \"episodes\": %d,\n  \"runs\": [\n",
               quick ? "true" : "false", host_cores, episodes);
  for (size_t i = 0; i < runs.size(); ++i) {
    const ScaleRun& run = runs[i];
    std::fprintf(out,
                 "    {\"workers\": %zu, \"env_steps\": %llu, \"wall_s\": %.3f,"
                 " \"steps_per_s\": %.0f, \"fingerprint\": \"%08x\"}%s\n",
                 run.workers, static_cast<unsigned long long>(run.env_steps), run.wall_s,
                 run.steps_per_s, run.fingerprint, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"speedup_4v1\": %.2f,\n  \"speedup_applicable\": %s,\n"
               "  \"speedup_ok\": %s,\n  \"fingerprints_identical\": %s\n}\n",
               speedup, speedup_applicable ? "true" : "false", speedup_ok ? "true" : "false",
               fingerprints_identical ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!fingerprints_identical) {
    std::fprintf(stderr, "FAIL: training state diverged across worker counts\n");
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: 4-worker speedup %.2fx below the 3x floor on a %u-core host\n",
                 speedup, host_cores);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
