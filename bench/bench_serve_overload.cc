// Overload + chaos benchmark for the inference-serving boundary.
//
// Three phases against a real InferenceServer:
//   A  calibrate: closed-loop clients saturate the server to measure its
//      serving capacity (req/s) and steady-state flush cost; the per-request
//      rpc timeout is derived from the flush cost so the shed threshold
//      (~27 batches of queue) sits below the client population on any
//      machine speed.
//   B  paced load at 1x / 2x / 4x capacity across many concurrent
//      synchronous clients (1000, --quick: 320), recording per-outcome
//      latency: served p50/p95/p99, shed fast-fail p50/p95, timeout and
//      deadline-violation counts. The acceptance criterion lives here: at
//      4x capacity, shed responses must resolve in <10% of the rpc timeout.
//   C  chaos: a supervised server under a seeded crash/corrupt/stall storm
//      with self-healing RemotePolicy clients — reconnect counts, fallback
//      decisions, and the max decision latency against the soak budget.
//
// Writes the record to BENCH_serve_overload.json (--out PATH overrides).
// Seven checks fail the run: at 4x no sheds or a shed p95 at or above 10% of
// the rpc timeout; any deadline violation; and in the chaos phase no
// restart, no reconnect, a budget violation or a client left detached.

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policy.h"
#include "src/eval/bench_record.h"
#include "src/eval/table.h"
#include "src/ipc/shm_ring.h"
#include "src/nn/mlp.h"
#include "src/serve/inference_server.h"
#include "src/serve/remote_policy.h"
#include "src/serve/supervisor.h"
#include "src/util/chaos.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace astraea {
namespace {

using serve::InferenceServer;
using serve::InferenceServerConfig;
using serve::ReconnectConfig;
using serve::RemotePolicy;
using serve::RequestOutcome;
using serve::RequestResult;
using serve::ServeClient;
using serve::ServeClientConfig;
using serve::Supervisor;
using serve::SupervisorConfig;

constexpr int kDim = 30;
constexpr double kFallbackValue = 2.0;  // outside [-1, 1]: unmistakably local

std::string UniquePath(const char* tag) {
  return "/tmp/astraea_bench_overload_" + std::to_string(getpid()) + "_" + tag;
}

std::string WriteModel(const std::string& path) {
  // Hidden layers sized so a max_batch flush costs a few milliseconds. That
  // does two things: the server is saturable by a realistic client count, and
  // the shed fast-fail budget (a fixed multiple of the flush cost, see the
  // rpc-timeout derivation) dwarfs client-thread scheduling noise even on a
  // single-core machine driving hundreds of client threads.
  Rng rng(7);
  const Mlp model({kDim, 768, 768, 1}, OutputActivation::kTanh, &rng);
  BinaryWriter writer(path);
  model.Save(&writer);
  writer.Flush();
  return path;
}

// Lift RLIMIT_NOFILE to its hard cap: each client costs a handful of fds
// (socket, memfd, doorbell dup) on each side of the boundary, and the default
// 1024 soft limit cannot hold 1000 clients in one process.
size_t RaiseFdLimit() {
  struct rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) {
    return 1024;
  }
  rl.rlim_cur = rl.rlim_max;
  setrlimit(RLIMIT_NOFILE, &rl);
  getrlimit(RLIMIT_NOFILE, &rl);
  return static_cast<size_t>(rl.rlim_cur);
}

class ConstantPolicy : public Policy {
 public:
  explicit ConstantPolicy(double value) : value_(value) {}
  double Act(const StateView&) const override { return value_; }
  std::string name() const override { return "constant"; }

 private:
  double value_;
};

struct Sample {
  TimeNs at;
  TimeNs dt;
  RequestOutcome outcome;
};

struct LoadPoint {
  double multiplier = 0.0;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  uint64_t attempts = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  uint64_t timeouts = 0;
  uint64_t errors = 0;
  uint64_t deadline_violations = 0;  // served latency > 1.5 * rpc_timeout
  double served_p50 = 0.0, served_p95 = 0.0, served_p99 = 0.0;
  double shed_p50 = 0.0, shed_p95 = 0.0;
};

// Paced open-loop-with-loss worker: one request per slot, skipping slots the
// previous (synchronous) request is still blocking through.
void LoadWorker(ServeClient* client, TimeNs start, TimeNs offset, TimeNs period, TimeNs until,
                uint64_t seed, std::vector<Sample>* out) {
  Rng rng(seed);
  std::vector<float> state(kDim);
  uint64_t slot = 0;
  while (true) {
    const TimeNs next = start + offset + static_cast<TimeNs>(slot) * period;
    if (next >= until) {
      return;
    }
    const TimeNs now = ipc::MonotonicNowNs();
    if (now < next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    }
    for (float& v : state) {
      v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    }
    const TimeNs t0 = ipc::MonotonicNowNs();
    const RequestResult result = client->RequestDetailed(state);
    const TimeNs t1 = ipc::MonotonicNowNs();
    out->push_back(Sample{t0, t1 - t0, result.outcome});
    // Next slot strictly after the request resolved: at most one outstanding.
    slot = static_cast<uint64_t>((t1 - start - offset) / period) + 1;
  }
}

LoadPoint RunLoadPoint(std::vector<std::unique_ptr<ServeClient>>& clients, double multiplier,
                       double capacity_rps, TimeNs duration, TimeNs rpc_timeout) {
  const size_t n = clients.size();
  const double offered = multiplier * capacity_rps;
  const TimeNs period = static_cast<TimeNs>(static_cast<double>(n) * 1e9 / offered);
  std::vector<std::vector<Sample>> samples(n);
  const TimeNs start = ipc::MonotonicNowNs();
  const TimeNs until = start + duration;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    samples[i].reserve(static_cast<size_t>(duration / period) + 4);
    const TimeNs offset = static_cast<TimeNs>(i) * period / static_cast<TimeNs>(n);
    threads.emplace_back(LoadWorker, clients[i].get(), start, offset, period, until,
                         9000 + static_cast<uint64_t>(i), &samples[i]);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Drop the ramp: the queue (and therefore the shed regime) needs a moment
  // to reach steady state after the load step.
  const TimeNs cutoff = start + duration / 5;
  LoadPoint point;
  point.multiplier = multiplier;
  point.offered_rps = offered;
  std::vector<double> served_lat;
  std::vector<double> shed_lat;
  for (const auto& vec : samples) {
    for (const Sample& s : vec) {
      if (s.at < cutoff) {
        continue;
      }
      ++point.attempts;
      switch (s.outcome) {
        case RequestOutcome::kOk:
          ++point.served;
          served_lat.push_back(ToSeconds(s.dt));
          if (s.dt > rpc_timeout + rpc_timeout / 2) {
            ++point.deadline_violations;
          }
          break;
        case RequestOutcome::kRejected:
          ++point.shed;
          shed_lat.push_back(ToSeconds(s.dt));
          break;
        case RequestOutcome::kTimeout:
          ++point.timeouts;
          break;
        default:
          ++point.errors;
          break;
      }
    }
  }
  const double window_s = ToSeconds(until - cutoff);
  point.achieved_rps = window_s > 0 ? static_cast<double>(point.attempts) / window_s : 0.0;
  point.served_p50 = Percentile(served_lat, 50.0);
  point.served_p95 = Percentile(served_lat, 95.0);
  point.served_p99 = Percentile(served_lat, 99.0);
  point.shed_p50 = Percentile(shed_lat, 50.0);
  point.shed_p95 = Percentile(shed_lat, 95.0);
  return point;
}

struct ChaosResult {
  uint64_t restarts = 0;
  uint64_t reconnects = 0;
  uint64_t decisions = 0;
  uint64_t fallback_decisions = 0;
  uint64_t budget_violations = 0;
  double max_decision_s = 0.0;
  double budget_s = 0.0;
  bool all_reattached = false;
};

ChaosResult RunChaosPhase(const std::string& model_path, TimeNs storm_duration,
                          size_t max_batch) {
  const std::string socket_path = UniquePath("chaos.sock");
  const chaos::ChaosSchedule storm =
      chaos::ChaosSchedule::RandomServeStorm(42, storm_duration, Milliseconds(400));

  SupervisorConfig sup_config;
  sup_config.restart_backoff = {Milliseconds(2), Milliseconds(100), 2.0, 0.25};
  sup_config.healthy_uptime = Seconds(1.0);
  sup_config.seed = 77;
  Supervisor supervisor(sup_config, [&](TimeNs elapsed) {
    try {
      InferenceServerConfig config;
      config.socket_path = socket_path;
      config.model_path = model_path;
      config.max_batch = max_batch;
      InferenceServer server(config);
      chaos::ChaosRunner runner(storm, elapsed);
      server.Run();  // exits via chaos crash (_exit) or supervisor SIGTERM
    } catch (const std::exception&) {
      return 1;
    }
    return 0;
  });
  std::thread sup_thread([&] { supervisor.Run(); });

  const TimeNs rpc_timeout = Milliseconds(20);
  const TimeNs connect_timeout = Milliseconds(150);
  // One decision may pay a request (<= rpc_timeout) plus one reconnect probe
  // (<= connect_timeout); the slack absorbs scheduler noise on loaded hosts.
  const TimeNs budget = rpc_timeout + connect_timeout + Milliseconds(500);

  constexpr size_t kClients = 8;
  std::vector<std::unique_ptr<RemotePolicy>> policies;
  for (size_t c = 0; c < kClients; ++c) {
    ReconnectConfig reconnect;
    reconnect.client.socket_path = socket_path;
    reconnect.client.rpc_timeout = rpc_timeout;
    reconnect.client.connect_timeout = connect_timeout;
    reconnect.backoff = {Milliseconds(2), Milliseconds(100), 2.0, 0.25};
    reconnect.seed = 900 + static_cast<uint64_t>(c);
    policies.push_back(std::make_unique<RemotePolicy>(
        nullptr, std::make_shared<ConstantPolicy>(kFallbackValue), reconnect));
  }

  ChaosResult result;
  result.budget_s = ToSeconds(budget);
  std::atomic<uint64_t> decisions{0};
  std::atomic<uint64_t> fallbacks{0};
  std::atomic<uint64_t> violations{0};
  std::atomic<TimeNs> max_dt{0};
  const TimeNs start = ipc::MonotonicNowNs();
  const TimeNs until = start + storm_duration + Seconds(1.0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(500 + static_cast<uint64_t>(c));
      std::vector<float> state(kDim);
      StateView view;
      view.state_vector = state;
      while (ipc::MonotonicNowNs() < until) {
        for (float& v : state) {
          v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
        }
        const TimeNs t0 = ipc::MonotonicNowNs();
        const double action = policies[c]->Act(view);
        const TimeNs dt = ipc::MonotonicNowNs() - t0;
        decisions.fetch_add(1);
        if (action == kFallbackValue) {
          fallbacks.fetch_add(1);
        }
        if (dt > budget) {
          violations.fetch_add(1);
        }
        TimeNs seen = max_dt.load();
        while (dt > seen && !max_dt.compare_exchange_weak(seen, dt)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Storm over, server stays up: every policy must settle back to served
  // decisions (the re-attach half of the state machine).
  const TimeNs settle_deadline = ipc::MonotonicNowNs() + Seconds(15.0);
  size_t attached = 0;
  while (attached < kClients && ipc::MonotonicNowNs() < settle_deadline) {
    attached = 0;
    std::vector<float> state(kDim, 0.1f);
    StateView view;
    view.state_vector = state;
    for (auto& policy : policies) {
      if (policy->Act(view) != kFallbackValue) {
        ++attached;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.all_reattached = attached == kClients;

  supervisor.Stop();
  sup_thread.join();
  result.restarts = supervisor.restarts();
  for (auto& policy : policies) {
    result.reconnects += policy->reconnects();
  }
  result.decisions = decisions.load();
  result.fallback_decisions = fallbacks.load();
  result.budget_violations = violations.load();
  result.max_decision_s = ToSeconds(max_dt.load());
  std::remove(socket_path.c_str());
  return result;
}

int Main(int argc, char** argv) {
  BenchRecord record("serve_overload", argc, argv);
  if (!record.args_ok()) {
    return 1;
  }
  PrintBenchHeader("serve_overload",
                   "serving boundary under overload (admission shed) and chaos (self-healing)");
  const bool quick = record.quick();

  // clients >> 27 * max_batch so the shed threshold (~27 queued batches, set
  // by the rpc-timeout derivation and shed margin below) is reachable by the
  // synchronous client population.
  size_t n_clients = quick ? 320 : 1000;
  // Same batch bound in both modes: a larger batch amortizes the per-row
  // inference cost and pushes capacity (and with it the 4x offered rate)
  // past what a small machine can generate while also serving.
  const size_t max_batch = 8;
  const TimeNs point_duration = quick ? Seconds(1.0) : Seconds(2.0);

  const size_t fd_limit = RaiseFdLimit();
  const size_t fd_budget = fd_limit > 256 ? (fd_limit - 256) / 6 : 16;
  if (n_clients > fd_budget) {
    std::printf("fd limit %zu: reducing clients %zu -> %zu\n", fd_limit, n_clients, fd_budget);
    n_clients = fd_budget;
  }

  const std::string model_path = WriteModel(UniquePath("actor.ckpt"));
  const std::string socket_path = UniquePath("load.sock");

  InferenceServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.model_path = model_path;
  server_config.max_batch = max_batch;
  // Bias admission toward shedding: a request projected to land within 2/3 of
  // its deadline is admitted, anything tighter fast-fails. Without the bias,
  // requests admitted right at the boundary straggle past their deadline and
  // burn the client's whole rpc timeout instead.
  server_config.shed_margin = 1.5;
  auto server = std::make_unique<InferenceServer>(server_config);
  std::thread server_thread([&] {
    // On a small machine the load generators outnumber the serving thread by
    // three orders of magnitude; without a scheduling edge the server starves
    // at >1x offered load and even sheds stall. Needs root / CAP_SYS_NICE;
    // silently degrades without.
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), -10);
    server->Run();
  });

  // --- Phase A: capacity calibration (closed loop, batch-filling). ---
  const TimeNs calib_duration = quick ? Seconds(0.5) : Seconds(1.0);
  std::atomic<uint64_t> calib_ok{0};
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < max_batch; ++i) {
      threads.emplace_back([&, i] {
        ServeClientConfig config;
        config.socket_path = socket_path;
        config.rpc_timeout = Milliseconds(200);
        auto client = ServeClient::Connect(config);
        if (!client) {
          return;
        }
        Rng rng(100 + static_cast<uint64_t>(i));
        std::vector<float> state(kDim);
        const TimeNs until = ipc::MonotonicNowNs() + calib_duration;
        while (ipc::MonotonicNowNs() < until) {
          for (float& v : state) {
            v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
          }
          if (client->RequestDetailed(state).ok()) {
            calib_ok.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  const double capacity_rps =
      static_cast<double>(calib_ok.load()) / ToSeconds(calib_duration);
  double flush_est_s =
      MetricsRegistry::Global().GetGauge("serve.est_batch_latency_seconds").Value();
  if (flush_est_s <= 0.0) {
    flush_est_s = 1e-3;
  }
  // Deadline = 40 flushes of queue: the shed threshold lands at ~40/1.5 = 27
  // batches (the server sheds with margin 1.5) regardless of machine speed —
  // far below the client population — while one in-flight flush (the shed
  // response's typical wait) stays well under 10% of the timeout.
  const TimeNs rpc_timeout = std::clamp<TimeNs>(
      static_cast<TimeNs>(40.0 * flush_est_s * 1e9), Milliseconds(1), Milliseconds(250));
  std::printf("capacity %.0f req/s, flush est %.3f ms, rpc timeout %.1f ms, %zu clients\n",
              capacity_rps, flush_est_s * 1e3, ToSeconds(rpc_timeout) * 1e3, n_clients);

  // --- Phase B: paced load at 1x / 2x / 4x capacity. ---
  std::vector<std::unique_ptr<ServeClient>> clients(n_clients);
  {
    std::vector<std::thread> connectors;
    const size_t lanes = 8;
    for (size_t lane = 0; lane < lanes; ++lane) {
      connectors.emplace_back([&, lane] {
        ServeClientConfig config;
        config.socket_path = socket_path;
        config.rpc_timeout = rpc_timeout;
        for (size_t i = lane; i < n_clients; i += lanes) {
          clients[i] = ServeClient::Connect(config);
        }
      });
    }
    for (std::thread& t : connectors) {
      t.join();
    }
  }
  size_t attached = 0;
  for (auto& client : clients) {
    attached += client ? 1 : 0;
  }
  if (attached < n_clients) {
    std::printf("WARNING: only %zu/%zu clients attached\n", attached, n_clients);
    clients.erase(std::remove_if(clients.begin(), clients.end(),
                                 [](const std::unique_ptr<ServeClient>& c) { return !c; }),
                  clients.end());
  }

  ConsoleTable table({"load", "offered rps", "served", "shed", "timeout", "served p95 (ms)",
                      "shed p95 (ms)"});
  std::vector<LoadPoint> points;
  for (const double mult : {1.0, 2.0, 4.0}) {
    points.push_back(RunLoadPoint(clients, mult, capacity_rps, point_duration, rpc_timeout));
    const LoadPoint& p = points.back();
    const std::string load = ConsoleTable::Num(p.multiplier, 0) + "x";
    table.AddRow({load, ConsoleTable::Num(p.offered_rps, 0), std::to_string(p.served),
                  std::to_string(p.shed), std::to_string(p.timeouts),
                  ConsoleTable::Num(p.served_p95 * 1e3, 2),
                  ConsoleTable::Num(p.shed_p95 * 1e3, 2)});
    const std::string key = "load_points." + load + ".";
    record.Metric(key + "offered_rps", p.offered_rps, "req/s");
    record.Metric(key + "achieved_rps", p.achieved_rps, "req/s");
    record.Metric(key + "attempts", static_cast<double>(p.attempts), "count");
    record.Metric(key + "served", static_cast<double>(p.served), "count");
    record.Metric(key + "shed", static_cast<double>(p.shed), "count");
    record.Metric(key + "timeouts", static_cast<double>(p.timeouts), "count");
    record.Metric(key + "errors", static_cast<double>(p.errors), "count");
    record.Metric(key + "deadline_violations", static_cast<double>(p.deadline_violations),
                  "count");
    record.Metric(key + "served_latency_s.p50", p.served_p50, "s");
    record.Metric(key + "served_latency_s.p95", p.served_p95, "s");
    record.Metric(key + "served_latency_s.p99", p.served_p99, "s");
    record.Metric(key + "shed_latency_s.p50", p.shed_p50, "s");
    record.Metric(key + "shed_latency_s.p95", p.shed_p95, "s");
  }
  table.Print();

  clients.clear();
  server->Stop();
  server_thread.join();
  server.reset();

  // --- Phase C: supervised crash storm with self-healing clients. ---
  const ChaosResult chaos = RunChaosPhase(model_path, quick ? Seconds(2.0) : Seconds(3.0),
                                          max_batch);
  std::printf("chaos: %llu restarts, %llu reconnects, %llu/%llu fallback decisions, "
              "max decision %.1f ms (budget %.0f ms), %llu budget violations%s\n",
              static_cast<unsigned long long>(chaos.restarts),
              static_cast<unsigned long long>(chaos.reconnects),
              static_cast<unsigned long long>(chaos.fallback_decisions),
              static_cast<unsigned long long>(chaos.decisions), chaos.max_decision_s * 1e3,
              chaos.budget_s * 1e3, static_cast<unsigned long long>(chaos.budget_violations),
              chaos.all_reattached ? "" : " (NOT all re-attached)");

  record.Metric("clients", static_cast<double>(attached), "count");
  record.Metric("capacity_rps", capacity_rps, "req/s");
  record.Metric("flush_est_s", flush_est_s, "s");
  record.Metric("rpc_timeout_s", ToSeconds(rpc_timeout), "s");
  record.Metric("chaos.restarts", static_cast<double>(chaos.restarts), "count");
  record.Metric("chaos.reconnects", static_cast<double>(chaos.reconnects), "count");
  record.Metric("chaos.decisions", static_cast<double>(chaos.decisions), "count");
  record.Metric("chaos.fallback_decisions", static_cast<double>(chaos.fallback_decisions),
                "count");
  record.Metric("chaos.budget_violations", static_cast<double>(chaos.budget_violations),
                "count");
  record.Metric("chaos.max_decision_s", chaos.max_decision_s, "s");
  record.Metric("chaos.decision_budget_s", chaos.budget_s, "s");

  const LoadPoint& at4 = points.back();
  const double shed_budget_s = 0.1 * ToSeconds(rpc_timeout);
  record.Check("load_points.4x.shed_nonzero", at4.shed > 0, std::to_string(at4.shed) + " shed");
  record.Check("load_points.4x.shed_p95_under_10pct_rpc_timeout", at4.shed_p95 < shed_budget_s,
               ConsoleTable::Num(at4.shed_p95 * 1e3) + " ms vs " +
                   ConsoleTable::Num(shed_budget_s * 1e3) + " ms");
  bool on_time = true;
  std::string late;
  for (const LoadPoint& p : points) {
    on_time &= p.deadline_violations == 0;
    late += ConsoleTable::Num(p.multiplier, 0) + "x " + std::to_string(p.deadline_violations) +
            (&p == &points.back() ? "" : ", ");
  }
  record.Check("load_points.deadline_violations_zero", on_time, late);
  record.Check("chaos.restarts_nonzero", chaos.restarts > 0, std::to_string(chaos.restarts));
  record.Check("chaos.reconnects_nonzero", chaos.reconnects > 0,
               std::to_string(chaos.reconnects));
  record.Check("chaos.budget_violations_zero", chaos.budget_violations == 0,
               std::to_string(chaos.budget_violations));
  record.Check("chaos.all_reattached", chaos.all_reattached);

  std::remove(model_path.c_str());
  std::remove(socket_path.c_str());
  return record.Finish();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
