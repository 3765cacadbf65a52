// Kernel and harness performance trajectory for this repo: per-step actor
// inference latency, per-row inference cost across batch sizes, TD3 training
// throughput on the batched vs the per-sample reference path, batched
// inference-service cost, and parallel experiment harness scenario throughput
// (1 worker vs all cores).
//
// Prints a table and emits BENCH_kernels.json (override with --out=PATH) so
// successive PRs can track the numbers. `--quick` shrinks the harness stage.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "bench/harness/experiments.h"
#include "src/core/inference_service.h"
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
// batches (1-2 rows), both sides of 4-row tile boundaries, and the training
// batch.
constexpr size_t kSweepBatches[] = {1, 2, 4, 8, 15, 16, 64, 256};

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
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  const bool quick = QuickMode(argc, argv);
  PrintBenchHeader("Kernels", "Batched NN kernel and parallel-harness performance");

  // ---- Per-step actor inference (the Fig. 16 tens-of-microseconds budget).
  Mlp actor = PaperActor();
  Rng data_rng(2);
  std::vector<float> state(kLocalDim);
  for (auto& v : state) {
    v = static_cast<float>(data_rng.Uniform(0.0, 2.0));
  }
  const double infer_s = TimePerCall(0.3, [&] { actor.Infer(state); });

  // ---- Batched forward, per row at the training batch size.
  std::vector<float> batch_states(kTrainBatch * kLocalDim);
  for (auto& v : batch_states) {
    v = static_cast<float>(data_rng.Uniform(0.0, 2.0));
  }
  const double fwd_batch_s =
      TimePerCall(0.3, [&] { actor.ForwardBatch(batch_states, kTrainBatch); });

  // ---- Inference per row across batch sizes, on the allocation-free path.
  std::vector<double> sweep_us_per_row;
  for (const size_t batch : kSweepBatches) {
    const std::span<const float> rows(batch_states.data(), batch * kLocalDim);
    const double s = TimePerCall(0.2, [&] { actor.InferBatchSpan(rows, batch); });
    sweep_us_per_row.push_back(s * 1e6 / static_cast<double>(batch));
  }

  // ---- Inference-service flush at 256 pending flows.
  InferenceService service(PaperActor());
  const double flush_s = TimePerCall(0.3, [&] {
    for (size_t i = 0; i < kTrainBatch; ++i) {
      service.Submit(
          std::vector<float>(batch_states.begin() + static_cast<long>(i * kLocalDim),
                             batch_states.begin() + static_cast<long>((i + 1) * kLocalDim)),
          [](double) {});
    }
    service.Flush();
  });

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
  const double td3_speedup = update_reference_s / update_batched_s;

  // ---- Harness scenario throughput: 8 staggered-scenario reps, 1 worker vs
  // every core (astraea flows, so the NN inference path is exercised too).
  StaggeredConfig config = DefaultStaggeredConfig();
  config.start_interval = Seconds(quick ? 3.0 : 6.0);
  config.flow_duration = Seconds(quick ? 9.0 : 18.0);
  config.until = Seconds(quick ? 15.0 : 30.0);
  const int harness_reps = 8;
  const size_t cores = ThreadPool::DefaultWorkerCount();

  const auto serial_start = Clock::now();
  CollectJainSamples("astraea", config, harness_reps, /*workers=*/1);
  const double serial_s = SecondsSince(serial_start);
  const auto parallel_start = Clock::now();
  CollectJainSamples("astraea", config, harness_reps, /*workers=*/cores);
  const double parallel_s = SecondsSince(parallel_start);
  const double harness_speedup = serial_s / parallel_s;
  const double scaling_efficiency =
      harness_speedup / static_cast<double>(std::min<size_t>(cores, harness_reps));

  ConsoleTable table({"metric", "value"});
  table.AddRow({"actor inference (us/step)", ConsoleTable::Num(infer_s * 1e6)});
  table.AddRow({"actor ForwardBatch-256 (us/row)",
                ConsoleTable::Num(fwd_batch_s * 1e6 / kTrainBatch)});
  for (size_t i = 0; i < std::size(kSweepBatches); ++i) {
    table.AddRow({"actor InferBatch-" + std::to_string(kSweepBatches[i]) + " (us/row)",
                  ConsoleTable::Num(sweep_us_per_row[i])});
  }
  table.AddRow({"service flush-256 (us/flow)",
                ConsoleTable::Num(flush_s * 1e6 / kTrainBatch)});
  table.AddRow({"TD3 updates/s (batched, B=256)", ConsoleTable::Num(1.0 / update_batched_s, 1)});
  table.AddRow(
      {"TD3 updates/s (reference, B=256)", ConsoleTable::Num(1.0 / update_reference_s, 1)});
  table.AddRow({"TD3 batched speedup", ConsoleTable::Num(td3_speedup)});
  table.AddRow({"harness 8 reps, 1 worker (s)", ConsoleTable::Num(serial_s)});
  table.AddRow({"harness 8 reps, " + std::to_string(cores) + " workers (s)",
                ConsoleTable::Num(parallel_s)});
  table.AddRow({"harness scaling efficiency", ConsoleTable::Num(scaling_efficiency)});
  table.Print();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::string sweep_json;
  for (size_t i = 0; i < std::size(kSweepBatches); ++i) {
    char entry[64];
    std::snprintf(entry, sizeof(entry), "%s\"%zu\": %.4f", i == 0 ? "" : ", ",
                  kSweepBatches[i], sweep_us_per_row[i]);
    sweep_json += entry;
  }
  std::fprintf(out,
               "{\n"
               "  \"host_cores\": %zu,\n"
               "  \"actor_infer_us\": %.3f,\n"
               "  \"actor_forward_batch256_us_per_row\": %.4f,\n"
               "  \"actor_infer_batch_us_per_row\": {%s},\n"
               "  \"service_flush256_us_per_flow\": %.4f,\n"
               "  \"td3_updates_per_sec_batched\": %.2f,\n"
               "  \"td3_updates_per_sec_reference\": %.2f,\n"
               "  \"td3_batched_speedup\": %.3f,\n"
               "  \"harness\": {\n"
               "    \"reps\": %d,\n"
               "    \"workers\": %zu,\n"
               "    \"serial_seconds\": %.3f,\n"
               "    \"parallel_seconds\": %.3f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"scaling_efficiency\": %.3f\n"
               "  }\n"
               "}\n",
               cores, infer_s * 1e6, fwd_batch_s * 1e6 / kTrainBatch, sweep_json.c_str(),
               flush_s * 1e6 / kTrainBatch, 1.0 / update_batched_s,
               1.0 / update_reference_s, td3_speedup, harness_reps, cores, serial_s,
               parallel_s, harness_speedup, scaling_efficiency);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
