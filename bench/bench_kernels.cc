// Kernel and harness performance trajectory for this repo: per-step actor
// inference latency, per-row inference cost across batch sizes, TD3 training
// throughput on the batched vs the per-sample reference path, and parallel
// experiment harness scenario throughput (1 worker vs all cores).
//
// Prints the record's metrics and writes it to BENCH_kernels.json (--out PATH
// overrides) so successive changes can track the numbers. The record holds no
// checks: these numbers are a trajectory, not a gate. `--quick` shrinks the
// harness stage.

#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "bench/harness/experiments.h"
#include "src/eval/bench_record.h"
#include "src/eval/table.h"
#include "src/rl/replay_buffer.h"
#include "src/rl/td3.h"
#include "src/util/thread_pool.h"

namespace astraea {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Runs fn() repeatedly until ~min_time elapses (after one warmup call) and
// returns the mean seconds per call. Takes the best of three such trials so a
// scheduler hiccup during one trial doesn't distort the reading — the same
// discipline is applied to every code path being compared.
template <typename Fn>
double TimePerCall(double min_time, Fn&& fn) {
  fn();  // warmup
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    int64_t calls = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = SecondsSince(start);
    } while (elapsed < min_time / 3.0);
    const double per_call = elapsed / static_cast<double>(calls);
    if (trial == 0 || per_call < best) {
      best = per_call;
    }
  }
  return best;
}

// The paper's deployment shapes: 40 local features (8 x w=5), 12 global
// features, 256/128/64 hidden, scalar action.
constexpr int kLocalDim = 40;
constexpr int kGlobalDim = 12;
constexpr size_t kTrainBatch = 256;
// Batch sizes for the per-row inference sweep: the serving path's small
// batches (1-3 rows), both sides of 4-row tile boundaries, and the training
// batch.
constexpr size_t kSweepBatches[] = {1, 2, 3, 4, 8, 15, 16, 64, 256};

Mlp PaperActor(uint64_t seed = 1) {
  Rng rng(seed);
  return Mlp({kLocalDim, 256, 128, 64, 1}, OutputActivation::kTanh, &rng);
}

Td3Trainer MakeTrainer(uint64_t seed) {
  Td3Config config;
  config.local_state_dim = kLocalDim;
  config.global_state_dim = kGlobalDim;
  config.action_dim = 1;
  config.batch_size = kTrainBatch;
  Rng rng(seed);
  return Td3Trainer(config, &rng);
}

ReplayBuffer MakeBuffer(uint64_t seed) {
  ReplayBuffer buffer(8192);
  Rng rng(seed);
  for (int i = 0; i < 2048; ++i) {
    Transition t;
    t.global_state.resize(kGlobalDim);
    t.local_state.resize(kLocalDim);
    t.next_global_state.resize(kGlobalDim);
    t.next_local_state.resize(kLocalDim);
    for (auto* v : {&t.global_state, &t.local_state, &t.next_global_state,
                    &t.next_local_state}) {
      for (auto& x : *v) {
        x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
    }
    t.action = {static_cast<float>(rng.Uniform(-1.0, 1.0))};
    t.reward = static_cast<float>(rng.Uniform(-1.0, 1.0));
    t.terminal = rng.Bernoulli(0.05);
    buffer.Add(std::move(t));
  }
  return buffer;
}

int Main(int argc, char** argv) {
  BenchRecord record("kernels", argc, argv);
  if (!record.args_ok()) {
    return 1;
  }
  PrintBenchHeader("Kernels", "Batched NN kernel and parallel-harness performance");

  // ---- Per-step actor inference (the Fig. 16 tens-of-microseconds budget).
  Mlp actor = PaperActor();
  Rng data_rng(2);
  std::vector<float> state(kLocalDim);
  for (auto& v : state) {
    v = static_cast<float>(data_rng.Uniform(0.0, 2.0));
  }
  record.Metric("actor_infer_us", TimePerCall(0.3, [&] { actor.Infer(state); }) * 1e6, "us");

  // ---- Batched forward, per row at the training batch size.
  std::vector<float> batch_states(kTrainBatch * kLocalDim);
  for (auto& v : batch_states) {
    v = static_cast<float>(data_rng.Uniform(0.0, 2.0));
  }
  const double fwd_batch_s =
      TimePerCall(0.3, [&] { actor.ForwardBatch(batch_states, kTrainBatch); });
  record.Metric("actor_forward_batch256_us_per_row", fwd_batch_s * 1e6 / kTrainBatch, "us");

  // ---- Inference per row across batch sizes, on the allocation-free path.
  for (const size_t batch : kSweepBatches) {
    const std::span<const float> rows(batch_states.data(), batch * kLocalDim);
    const double s = TimePerCall(0.2, [&] { actor.InferBatchSpan(rows, batch); });
    record.Metric("actor_infer_batch_us_per_row." + std::to_string(batch),
                  s * 1e6 / static_cast<double>(batch), "us");
  }

  // ---- TD3 training throughput: batched kernels vs per-sample reference.
  Td3Trainer batched = MakeTrainer(3);
  ReplayBuffer buffer = MakeBuffer(4);
  Rng rng_batched(5);
  const double update_batched_s =
      TimePerCall(1.0, [&] { batched.Update(buffer, &rng_batched); });
  Td3Trainer reference = MakeTrainer(3);
  Rng rng_reference(5);
  const double update_reference_s =
      TimePerCall(1.0, [&] { reference.UpdateReference(buffer, &rng_reference); });
  record.Metric("td3_updates_per_sec_batched", 1.0 / update_batched_s, "updates/s");
  record.Metric("td3_updates_per_sec_reference", 1.0 / update_reference_s, "updates/s");
  record.Metric("td3_batched_speedup", update_reference_s / update_batched_s, "x");

  // ---- Harness scenario throughput: 8 staggered-scenario reps, 1 worker vs
  // every core (astraea flows, so the NN inference path is exercised too).
  StaggeredConfig config = DefaultStaggeredConfig();
  config.start_interval = Seconds(record.quick() ? 3.0 : 6.0);
  config.flow_duration = Seconds(record.quick() ? 9.0 : 18.0);
  config.until = Seconds(record.quick() ? 15.0 : 30.0);
  const int harness_reps = 8;
  const size_t cores = ThreadPool::DefaultWorkerCount();

  const auto serial_start = Clock::now();
  CollectJainSamples("astraea", config, harness_reps, /*workers=*/1);
  const double serial_s = SecondsSince(serial_start);
  const auto parallel_start = Clock::now();
  CollectJainSamples("astraea", config, harness_reps, /*workers=*/cores);
  const double parallel_s = SecondsSince(parallel_start);
  const double harness_speedup = serial_s / parallel_s;
  record.Metric("harness.workers", static_cast<double>(cores), "count");
  record.Metric("harness.serial_seconds", serial_s, "s");
  record.Metric("harness.parallel_seconds", parallel_s, "s");
  record.Metric("harness.speedup", harness_speedup, "x");
  record.Metric("harness.scaling_efficiency",
                harness_speedup / static_cast<double>(std::min<size_t>(cores, harness_reps)),
                "ratio");
  record.PrintMetrics();
  return record.Finish();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
