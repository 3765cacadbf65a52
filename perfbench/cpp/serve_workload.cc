// serve: an InferenceServer on one thread of this process serves the trained
// checkpoint to two closed-loop ServeClient threads. Each client sends its
// next state only after its previous decision returns. States come from a
// pool drawn from the workload seed; every served action is compared with
// in-process inference of the same state on the same checkpoint.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "spans.h"
#include "src/core/policy.h"
#include "src/serve/inference_server.h"
#include "src/serve/remote_policy.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr size_t kStatePool = 4096;
constexpr int kSetups = 101;  // setup_s is the median of this many set-ups
// Longer than the 20 ms deployment default: on a shared host a vCPU can be
// descheduled for more than 20 ms, and the benchmark counts a request as
// failed only when the program fails to answer it.
constexpr astraea::TimeNs kRpcTimeout = astraea::Milliseconds(250);

// States and the actions in-process inference gives for them.
struct StatePool {
  size_t dim = 0;
  std::vector<float> states;  // row-major [kStatePool x dim]
  std::vector<float> expected;
  double model_load_s = 0.0;

  std::span<const float> state(size_t i) const { return {states.data() + i * dim, dim}; }
};

StatePool MakeStatePool(const Options& options) {
  StatePool pool;
  const auto load_start = std::chrono::steady_clock::now();
  // A load failure throws: the workload never measures another policy.
  const auto policy = astraea::MlpPolicy::LoadFromFile(options.model_path);
  pool.model_load_s = SecondsSince(load_start);
  const astraea::Mlp& actor = policy->actor();
  pool.dim = static_cast<size_t>(actor.input_size());
  astraea::Rng rng(astraea::Rng::DeriveSeed(options.seed, 0));
  pool.states.resize(kStatePool * pool.dim);
  for (float& x : pool.states) {
    x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  for (size_t i = 0; i < kStatePool; ++i) {
    // The server clamps in float; so does the reference.
    pool.expected.push_back(std::clamp(actor.Infer(pool.state(i))[0], -1.0f, 1.0f));
  }
  return pool;
}

// A running server thread plus its connected clients. Destruction stops the
// server and joins its thread, on error paths too.
class Fixture {
 public:
  explicit Fixture(const Options& options) {
    astraea::serve::InferenceServerConfig config;
    config.socket_path =
        options.out_dir + "/serve-" + std::to_string(static_cast<long>(getpid())) + ".sock";
    config.model_path = options.model_path;
    server_ = std::make_unique<astraea::serve::InferenceServer>(config);
    thread_ = std::thread([server = server_.get()] {
      try {
        server->Run();
      } catch (const std::exception& e) {
        // Clients then get no answers, so every later request counts as failed.
        std::cerr << "perfbench: serve: server thread failed: " << e.what() << "\n";
      }
    });
    astraea::serve::ServeClientConfig client_config;
    client_config.socket_path = config.socket_path;
    client_config.rpc_timeout = kRpcTimeout;
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(astraea::serve::ServeClient::Connect(client_config));
      if (clients_.back() == nullptr) {
        Shutdown();  // no destructor runs for a constructor that throws
        throw std::runtime_error("serve: client handshake failed on " + config.socket_path);
      }
    }
  }
  ~Fixture() { Shutdown(); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  astraea::serve::ServeClient& client(int c) { return *clients_[static_cast<size_t>(c)]; }

 private:
  void Shutdown() {
    clients_.clear();
    server_->Stop();
    thread_.join();
  }

  std::unique_ptr<astraea::serve::InferenceServer> server_;
  std::vector<std::unique_ptr<astraea::serve::ServeClient>> clients_;
  std::thread thread_;  // declared after what it uses
};

// Round trips in 0.1 us bins up to 10 ms, exact values above, failures
// above everything. Its size does not grow with the request count, so the
// process's peak RSS does not depend on how fast the host ran.
class RttHistogram {
 public:
  RttHistogram() : bins_(kBins, 0) {}

  void AddServed(double us) {
    const auto bin = static_cast<size_t>(us / kBinUs);
    if (bin < kBins) {
      ++bins_[bin];
    } else {
      slow_us_.push_back(us);
    }
    ++served_;
    sum_us_ += us;
  }
  void AddFailed() { ++failed_; }
  void Merge(const RttHistogram& other) {
    for (size_t b = 0; b < kBins; ++b) {
      bins_[b] += other.bins_[b];
    }
    slow_us_.insert(slow_us_.end(), other.slow_us_.begin(), other.slow_us_.end());
    served_ += other.served_;
    failed_ += other.failed_;
    sum_us_ += other.sum_us_;
  }

  uint64_t served() const { return served_; }
  uint64_t attempted() const { return served_ + failed_; }
  double mean_served_us() const {
    return served_ > 0 ? sum_us_ / static_cast<double>(served_) : 0.0;
  }
  // Nearest-rank quantile over every request (bin midpoint); a failed
  // request is slower than every percentile.
  double Quantile(double q) const {
    const uint64_t n = attempted();
    if (n == 0) {
      return 0.0;
    }
    uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
    for (size_t b = 0; b < kBins; ++b) {
      if (rank <= bins_[b]) {
        return (static_cast<double>(b) + 0.5) * kBinUs;
      }
      rank -= bins_[b];
    }
    if (rank <= slow_us_.size()) {
      std::vector<double> slow = slow_us_;
      std::sort(slow.begin(), slow.end());
      return slow[rank - 1];
    }
    return std::numeric_limits<double>::infinity();
  }

 private:
  static constexpr double kBinUs = 0.1;
  static constexpr size_t kBins = 100'000;
  std::vector<uint32_t> bins_;
  std::vector<double> slow_us_;
  uint64_t served_ = 0;
  uint64_t failed_ = 0;
  double sum_us_ = 0.0;
};

// What one phase of closed-loop traffic produced.
struct Phase {
  double wall_s = 0.0;
  uint64_t wrong = 0;        // served actions that differ from the reference
  std::string error;         // a client thread's exception, if any
  RttHistogram rtt;
  std::vector<Span> spans;   // traced phase: every client's root spans
  SpanSummary summary;
};

// Runs every client for `seconds`, each on its own thread with its own state
// stream; with `traced`, each request is a root span on its thread's recorder.
Phase RunPhase(Fixture* fixture, const StatePool& pool, const Options& options, double seconds,
               bool traced, uint64_t stream) {
  const auto start = std::chrono::steady_clock::now();
  struct ClientLog {
    explicit ClientLog(std::chrono::steady_clock::time_point origin) : recorder(origin) {}
    SpanRecorder recorder;
    RttHistogram rtt;
    uint64_t wrong = 0;
    std::string error;  // what ended the client's loop early, if anything
  };
  std::vector<ClientLog> logs(kClients, ClientLog(start));
  const auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::jthread> threads;  // joined on every path out of this scope
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      astraea::serve::ServeClient& client = fixture->client(c);
      astraea::Rng rng(astraea::Rng::DeriveSeed(options.seed, stream + static_cast<uint64_t>(c)));
      try {
        log.recorder.Reserve(traced ? 1 << 20 : 0);
        while (std::chrono::steady_clock::now() < deadline) {
          const auto i = static_cast<size_t>(rng.UniformInt(0, kStatePool - 1));
          const auto t0 = std::chrono::steady_clock::now();
          astraea::serve::RequestResult r;
          {
            ScopedSpan span(traced ? &log.recorder : nullptr, Layer::kServeRequest);
            r = client.RequestDetailed(pool.state(i));
          }
          const double us =
              std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                  .count();
          if (!r.ok()) {
            log.rtt.AddFailed();
            continue;
          }
          log.rtt.AddServed(us);
          const float action = static_cast<float>(r.action);
          const bool matches =
              std::bit_cast<uint32_t>(action) == std::bit_cast<uint32_t>(pool.expected[i]) &&
              action >= -1.0f && action <= 1.0f;
          log.wrong += matches ? 0 : 1;
        }
      } catch (const std::exception& e) {
        log.error = e.what();
      }
    });
  }
  for (std::jthread& t : threads) {
    t.join();
  }
  Phase phase;
  phase.wall_s = SecondsSince(start);
  for (const ClientLog& log : logs) {
    if (phase.error.empty()) {
      phase.error = log.error;
    }
    phase.wrong += log.wrong;
    phase.rtt.Merge(log.rtt);
    phase.summary.Merge(Summarize(log.recorder.spans()));
    phase.spans.insert(phase.spans.end(), log.recorder.spans().begin(), log.recorder.spans().end());
  }
  return phase;
}

void CheckPhase(const std::string& tag, const Phase& phase, Result* result) {
  result->Check(tag + " client threads ran to the end", phase.error.empty(), phase.error);
  result->Check(tag + " served actions bit-equal in-process inference and lie in [-1, 1]",
                phase.wrong == 0 && phase.rtt.served() > 0,
                std::to_string(phase.wrong) + " of " + std::to_string(phase.rtt.served()) +
                    " differ");
  result->attempted += phase.rtt.attempted();
  result->failed += phase.rtt.attempted() - phase.rtt.served();
}

// The server's own serve.* instruments, read from the registry.
struct ServeCounters {
  uint64_t batches = 0;
  double batch_rows = 0.0;
  uint64_t serviced = 0;
  double service_s = 0.0;
  uint64_t shed = 0;

  static ServeCounters Read() {
    astraea::MetricsRegistry& reg = astraea::MetricsRegistry::Global();
    const astraea::Histogram& batch = reg.GetHistogram("serve.batch_size");
    const astraea::Histogram& service = reg.GetHistogram("serve.service_latency_seconds");
    return {batch.Count(), batch.Sum(), service.Count(), service.Sum(),
            reg.GetCounter("serve.shed_total").Value()};
  }
  ServeCounters operator-(const ServeCounters& o) const {
    return {batches - o.batches, batch_rows - o.batch_rows, serviced - o.serviced,
            service_s - o.service_s, shed - o.shed};
  }
};

}  // namespace

Result RunServe(const Options& options) {
  Result result;
  RecordProvenance(options, /*uses_checkpoint=*/true, &result);
  const StatePool pool = MakeStatePool(options);

  // Set-up: server bind + model load + both client handshakes. The last
  // fixture is kept for the measurement.
  std::vector<double> setup;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    const auto setup_start = std::chrono::steady_clock::now();
    fixture = std::make_unique<Fixture>(options);
    setup.push_back(SecondsSince(setup_start));
  }

  result.Samples("setup_s", setup);
  if (!options.trace) {
    const Phase phase = RunPhase(fixture.get(), pool, options, options.seconds, false, 1);
    CheckPhase("closed loop", phase, &result);
    const double decisions_per_s = static_cast<double>(phase.rtt.served()) / phase.wall_s;
    result.Set("setup_s", Median(setup), "s");
    // One op is one decision round trip; its median is steadier on a shared
    // host than throughput, which the slowest requests drag down.
    result.Set("wall_us_per_op", phase.rtt.Quantile(0.50), "us");
    result.Set("decisions_per_s", decisions_per_s, "1/s");
    result.Set("decision_p50_us", phase.rtt.Quantile(0.50), "us");
    result.Set("decision_p90_us", phase.rtt.Quantile(0.90), "us");
    result.Set("requests", static_cast<double>(phase.rtt.attempted()), "count");
    return result;
  }

  // Traced run: the first half untraced, the second half traced; the
  // server's histograms are read around the traced half only.
  InitPerLayer(&result);
  const Phase plain = RunPhase(fixture.get(), pool, options, options.seconds / 2, false, 1);
  const ServeCounters before = ServeCounters::Read();
  const Phase traced = RunPhase(fixture.get(), pool, options, options.seconds / 2, true, 1001);
  const ServeCounters server = ServeCounters::Read() - before;
  CheckPhase("untraced half", plain, &result);
  CheckPhase("traced half", traced, &result);
  result.Check("one root span per traced request, self times add up to them",
               traced.summary.well_formed && traced.summary.SelfSum() == traced.summary.root_ns &&
                   traced.summary[Layer::kServeRequest].calls == traced.rtt.attempted(),
               std::to_string(traced.summary[Layer::kServeRequest].calls) + " spans for " +
                   std::to_string(traced.rtt.attempted()) + " requests");
  const double service_us =
      server.serviced > 0 ? server.service_s * 1e6 / static_cast<double>(server.serviced) : 0.0;
  result.Set("serve.batches", static_cast<double>(server.batches), "count");
  result.Set("serve.batch_mean",
             server.batches > 0 ? server.batch_rows / static_cast<double>(server.batches) : 0.0,
             "count");
  result.Set("serve.service_us_mean", service_us, "us");
  result.Set("serve.shed", static_cast<double>(server.shed), "count");
  result.Set("ipc.overhead_us", traced.rtt.mean_served_us() - service_us, "us");
  result.Set("serve.rtt_p99_us", traced.rtt.Quantile(0.99), "us");
  result.Set("setup.model_load_s", pool.model_load_s, "s");
  result.Set("trace.overhead_pct",
             100.0 * (traced.rtt.mean_served_us() - plain.rtt.mean_served_us()) /
                 plain.rtt.mean_served_us(),
             "%");
  result.Set("requests", static_cast<double>(traced.rtt.attempted()), "count");
  result.Check("spans written",
               WriteSpans(options.out_dir + "/" + options.workload + ".spans", traced.spans));
  return result;
}

}  // namespace perfbench
