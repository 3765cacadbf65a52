// Figure 16 — CPU overhead and inference-service scalability, as
// google-benchmark microbenchmarks:
//   * per-MTP policy decision cost (distilled and MLP paths),
//   * batched inference cost vs batch size (16a/16b: one Mlp::InferBatchSpan
//     pass over N flows — the kernel astraea_serve flushes a batch through —
//     vs Orca's one-inference-per-flow design),
//   * simulator event throughput (harness sanity number).
//
// With --serve the binary additionally benchmarks the out-of-process serving
// path (src/serve/): it forks a real astraea_serve process, waits until it
// accepts a client, runs 1..16 concurrent shared-memory clients against it,
// and records p50/p95/p99 decision latency plus decisions/sec per client
// count — next to the in-process dispatch baseline — to BENCH_fig16_serve.json
// (--out PATH overrides). Two checks fail the run: a server that never accepts
// a client, or any served request that fell back. --quick shrinks the request
// counts for smoke runs. google-benchmark reads its own flags first.

#include <benchmark/benchmark.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/core/astraea_controller.h"
#include "src/core/training_config.h"
#include "src/eval/bench_record.h"
#include "src/ipc/shm_ring.h"
#include "src/serve/inference_server.h"
#include "src/serve/remote_policy.h"
#include "src/sim/network.h"
#include "src/util/serialization.h"
#include "src/util/stats.h"

namespace astraea {
namespace {

Mlp PaperActor(uint64_t seed = 1) {
  // The paper's deployment model: 40 inputs (8 features x w=5), 256/128/64.
  Rng rng(seed);
  return Mlp({40, 256, 128, 64, 1}, OutputActivation::kTanh, &rng);
}

std::vector<float> RandomState(Rng* rng, size_t dim = 40) {
  std::vector<float> s(dim);
  for (auto& v : s) {
    v = static_cast<float>(rng->Uniform(0.0, 2.0));
  }
  return s;
}

void BM_MlpPolicyInference(benchmark::State& state) {
  Mlp actor = PaperActor();
  Rng rng(2);
  const std::vector<float> s = RandomState(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(actor.Infer(s));
  }
}
BENCHMARK(BM_MlpPolicyInference);

void BM_DistilledPolicyDecision(benchmark::State& state) {
  DistilledPolicy policy;
  MtpReport report;
  report.cwnd_bytes = 150'000;
  report.avg_rtt = Milliseconds(36);
  report.min_rtt = Milliseconds(30);
  report.acked_packets = 100;
  std::vector<float> vec(40, 0.5f);
  StateView view;
  view.state_vector = vec;
  view.report = &report;
  view.lat_min = Milliseconds(30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Act(view));
  }
}
BENCHMARK(BM_DistilledPolicyDecision);

// Fig. 16b: batched inference — total cost of scoring N flows in one batch.
// Per-flow cost (time/N) drops as N grows, the sublinear-scaling claim.
void BM_BatchedInference(benchmark::State& state) {
  const size_t flows = static_cast<size_t>(state.range(0));
  const Mlp actor = PaperActor();
  Rng rng(3);
  std::vector<float> states;
  for (size_t i = 0; i < flows; ++i) {
    const auto s = RandomState(&rng);
    states.insert(states.end(), s.begin(), s.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(actor.InferBatchSpan(states, flows).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(flows));
}
BENCHMARK(BM_BatchedInference)->Arg(1)->Arg(10)->Arg(50)->Arg(100)->Arg(500)->Arg(1000);

// The Orca-style counterfactual: one independent inference pass per flow
// (what the paper's Fig. 16b shows scaling linearly and exhausting 80 cores).
void BM_PerFlowInference(benchmark::State& state) {
  const size_t flows = static_cast<size_t>(state.range(0));
  Mlp actor = PaperActor();
  Rng rng(4);
  std::vector<std::vector<float>> states;
  for (size_t i = 0; i < flows; ++i) {
    states.push_back(RandomState(&rng));
  }
  for (auto _ : state) {
    for (const auto& s : states) {
      benchmark::DoNotOptimize(actor.Infer(s));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(flows));
}
BENCHMARK(BM_PerFlowInference)->Arg(1)->Arg(10)->Arg(50)->Arg(100)->Arg(500)->Arg(1000);

// Simulator speed: events per second on a saturated 100 Mbps bottleneck.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Network net(1);
    LinkConfig link;
    link.rate = Mbps(100);
    link.propagation_delay = Milliseconds(15);
    link.buffer_bytes = 375'000;
    net.AddLink(link);
    FlowSpec spec;
    spec.scheme = "astraea";
    spec.make_cc = [] {
      return std::make_unique<AstraeaController>(std::make_shared<DistilledPolicy>());
    };
    net.AddFlow(spec);
    net.Run(Seconds(2.0));
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(net.events().executed()));
  }
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Out-of-process serving comparison (--serve).
// ---------------------------------------------------------------------------

// Seed stream of the served clients' request states.
constexpr uint64_t kServeClientSeedStream = 0xA57AEA16;

// Records the latency percentiles, mean and decision rate of one measured
// point under `key`, and prints them as one line.
void RecordLatencies(BenchRecord* record, const std::string& key, const char* label,
                     const std::vector<double>& latencies_us, double wall_seconds) {
  const double n = static_cast<double>(latencies_us.size());
  const double p50 = Percentile(latencies_us, 50.0);
  const double p95 = Percentile(latencies_us, 95.0);
  const double p99 = Percentile(latencies_us, 99.0);
  const double rate = wall_seconds > 0.0 ? n / wall_seconds : 0.0;
  record->Metric(key + ".p50_us", p50, "us");
  record->Metric(key + ".p95_us", p95, "us");
  record->Metric(key + ".p99_us", p99, "us");
  record->Metric(key + ".mean_us",
                 n > 0 ? std::accumulate(latencies_us.begin(), latencies_us.end(), 0.0) / n : 0.0,
                 "us");
  record->Metric(key + ".decisions_per_sec", rate, "decisions/s");
  std::printf("%-15s p50 %7.1fus  p95 %7.1fus  p99 %7.1fus  %10.0f dec/s", label, p50, p95, p99,
              rate);
}

double MicrosSince(TimeNs t0) { return static_cast<double>(ipc::MonotonicNowNs() - t0) / 1e3; }

// The server binds its socket and starts serving in the forked child; a
// client that connects before then finds no server and falls back on every
// request. Waits, up to 10 s, until the server completes a handshake.
bool ServerAccepts(const std::string& socket_path) {
  serve::ServeClientConfig config;
  config.socket_path = socket_path;
  const TimeNs deadline = ipc::MonotonicNowNs() + Seconds(10.0);
  while (serve::ServeClient::Connect(config) == nullptr) {
    if (ipc::MonotonicNowNs() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

// One client worker: `requests` synchronous decisions over its own ring pair.
void ServeClientWorker(const std::string& socket_path, int index, int requests,
                       std::vector<double>* latencies_us, std::atomic<uint64_t>* fallbacks) {
  serve::ServeClientConfig config;
  config.socket_path = socket_path;
  config.rpc_timeout = Milliseconds(100);
  std::unique_ptr<serve::ServeClient> client = serve::ServeClient::Connect(config);
  if (client == nullptr) {
    fallbacks->fetch_add(static_cast<uint64_t>(requests));
    return;
  }
  Rng rng(Rng::DeriveSeed(kServeClientSeedStream, static_cast<uint64_t>(index)));
  latencies_us->reserve(static_cast<size_t>(requests));
  const std::vector<float> state = RandomState(&rng);
  for (int i = 0; i < requests; ++i) {
    const TimeNs t0 = ipc::MonotonicNowNs();
    if (client->Request(state).has_value()) {
      latencies_us->push_back(MicrosSince(t0));
    } else {
      fallbacks->fetch_add(1);
    }
  }
}

int RunServingComparison(BenchRecord* record) {
  const std::string tag = std::to_string(getpid());
  const std::string model_path = "/tmp/astraea_bench_serve_" + tag + ".ckpt";
  const std::string socket_path = "/tmp/astraea_bench_serve_" + tag + ".sock";
  const Mlp actor = PaperActor();
  {
    BinaryWriter writer(model_path);
    actor.Save(&writer);
    writer.Flush();
  }

  const int requests = record->quick() ? 300 : 2000;
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\n-- serving comparison: %d requests/client, model 40x256x128x64x1, "
              "%u core(s) --\n",
              requests, host_cores);
  if (host_cores < 4) {
    std::printf("note: clients + server oversubscribe %u core(s); multi-client\n"
                "      latency below is scheduler-bound, not IPC-bound.\n",
                host_cores);
  }

  // In-process dispatch baseline: the cost a sender pays when the model runs
  // inline in its own process.
  {
    Mlp local = PaperActor();
    Rng rng(9);
    const std::vector<float> state = RandomState(&rng);
    std::vector<double> latencies;
    latencies.reserve(static_cast<size_t>(requests));
    const TimeNs start = ipc::MonotonicNowNs();
    for (int i = 0; i < requests; ++i) {
      const TimeNs t0 = ipc::MonotonicNowNs();
      benchmark::DoNotOptimize(local.Infer(state));
      latencies.push_back(MicrosSince(t0));
    }
    RecordLatencies(record, "in_process", "in-process", latencies,
                    ToSeconds(ipc::MonotonicNowNs() - start));
    std::printf("\n");
  }

  // A real separate server process, exactly as deployed.
  const pid_t server_pid = fork();
  if (server_pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (server_pid == 0) {
    try {
      serve::InferenceServerConfig config;
      config.socket_path = socket_path;
      config.model_path = model_path;
      serve::InferenceServer server(std::move(config));
      server.Run();
    } catch (...) {
    }
    _exit(0);
  }

  if (record->Check("server_accepts", ServerAccepts(socket_path), "handshake within 10 s")) {
    bool no_fallbacks = true;
    std::string fallback_counts;
    for (const int clients : {1, 2, 4, 8, 16}) {
      std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
      std::atomic<uint64_t> fallbacks{0};
      std::vector<std::thread> threads;
      const TimeNs start = ipc::MonotonicNowNs();
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back(ServeClientWorker, socket_path, c, requests, &latencies[c],
                             &fallbacks);
      }
      for (std::thread& t : threads) {
        t.join();
      }
      const double wall = ToSeconds(ipc::MonotonicNowNs() - start);
      std::vector<double> all;
      for (const auto& per_client : latencies) {
        all.insert(all.end(), per_client.begin(), per_client.end());
      }
      const std::string key = "served." + std::to_string(clients);
      const std::string label = "served x" + std::to_string(clients);
      RecordLatencies(record, key, label.c_str(), all, wall);
      const uint64_t fell_back = fallbacks.load();
      record->Metric(key + ".fallbacks", static_cast<double>(fell_back), "count");
      no_fallbacks &= fell_back == 0;
      fallback_counts += (fallback_counts.empty() ? "x" : ", x") + std::to_string(clients) +
                         " " + std::to_string(fell_back);
      std::printf("  (%llu fallbacks)\n", static_cast<unsigned long long>(fell_back));
    }
    record->Check("served.fallbacks_zero", no_fallbacks, fallback_counts);
  }

  kill(server_pid, SIGKILL);
  waitpid(server_pid, nullptr, 0);
  std::remove(model_path.c_str());
  unlink(socket_path.c_str());
  return record->Finish();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) {
  // google-benchmark removes its own flags; the record reads the rest.
  benchmark::Initialize(&argc, argv);
  astraea::BenchRecord record("fig16_serve", argc, argv, {"--serve"});
  if (!record.args_ok()) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return record.Has("--serve") ? astraea::RunServingComparison(&record) : 0;
}
