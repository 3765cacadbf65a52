// Client side of the inference-serving subsystem.
//
// `ServeClient` owns one shared-memory ring pair against a running
// `astraea_serve` (it creates the memfd region, hands it over during the
// unix-socket handshake, and keeps the socket open purely for death
// detection). `Request()` is synchronous with a hard per-request deadline:
// the caller gets either the served action or std::nullopt — never a stall.
// Every request carries its absolute deadline so the server's admission
// policy can shed it (kRejected) the moment it becomes unservable; a shed
// request resolves in a fraction of the rpc timeout instead of all of it.
//
// `RemotePolicy` adapts that to the existing `Policy` interface so
// AstraeaController / run_scenario / astraea_eval can switch between
// in-process and served inference with one flag. Degradation is graceful by
// construction — any timeout, corruption, rejection, or server death makes
// Act() fall back to a local policy — and, when constructed with a reconnect
// config, *self-healing*: after the server dies (or was never up) the policy
// serves from the fallback at zero per-decision cost while probing the
// socket on a jittered exponential-backoff schedule (src/util/backoff.h),
// and re-attaches automatically when a server returns. The degradation state
// machine is served -> shed -> fallback -> reconnect -> served (DESIGN.md
// §12).
//
// Client-side metrics: serve.client.requests_total,
// serve.client.timeouts_total, serve.client.corrupt_total,
// serve.client.rejected_total, serve.client.reconnects_total,
// serve.fallback_total (counters); serve.client.outstanding (gauge);
// serve.client.latency_seconds (end-to-end decision latency histogram). All
// pre-registered zero-valued at construction (serve_metrics.h).

#ifndef SRC_SERVE_REMOTE_POLICY_H_
#define SRC_SERVE_REMOTE_POLICY_H_

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "src/core/policy.h"
#include "src/ipc/shm_ring.h"
#include "src/serve/serve_metrics.h"
#include "src/util/backoff.h"
#include "src/util/time.h"

namespace astraea {
namespace serve {

struct ServeClientConfig {
  std::string socket_path;
  // Per-request deadline; on expiry the caller falls back locally.
  TimeNs rpc_timeout = Milliseconds(20);
  TimeNs connect_timeout = Milliseconds(500);
};

// How a single served request resolved, for callers (bench_serve_overload,
// soak tests) that need to distinguish a fast-fail shed from a burned
// timeout.
enum class RequestOutcome {
  kOk,        // served action
  kRejected,  // shed by server admission control (fast fail; client healthy)
  kTimeout,   // no answer within rpc_timeout
  kCorrupt,   // CRC-invalid response; rings no longer trusted (client dead)
  kDead,      // server known dead / rings poisoned before the request
  kError,     // served an explicit error (bad request / inference failure)
};

struct RequestResult {
  RequestOutcome outcome = RequestOutcome::kDead;
  double action = 0.0;  // valid iff outcome == kOk
  bool ok() const { return outcome == RequestOutcome::kOk; }
};

class ServeClient {
 public:
  // Connects and completes the handshake. Returns nullptr on any failure
  // (no server, protocol mismatch, handshake timeout).
  static std::unique_ptr<ServeClient> Connect(const ServeClientConfig& config);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Blocking round trip, bounded by rpc_timeout. Returns the action in
  // [-1, 1], or nullopt on timeout / corruption / rejection / dead server.
  // Serialized internally (the ring is single-producer), so a shared client
  // is safe to call from multiple threads, one request at a time.
  std::optional<double> Request(std::span<const float> state);

  // Same round trip with the failure mode surfaced.
  RequestResult RequestDetailed(std::span<const float> state);

  // False once the server has been observed dead (socket EOF) or the rings
  // are untrusted (corrupt record seen); Request() then fails immediately.
  bool healthy() const;

  int model_input_dim() const { return model_input_dim_; }
  uint64_t timeouts() const { return timeouts_; }

  // Test hook: direct access to the shared region (e.g. to inject
  // corruption). The region stays valid for the client's lifetime.
  ipc::ShmRegion* region_for_test() { return region_.get(); }

 private:
  ServeClient(ServeClientConfig config, ipc::MappedRegion region, int sock, int event_fd,
              int model_input_dim);

  void MarkDead();
  bool CheckServerAlive();

  ServeClientConfig config_;
  ipc::MappedRegion region_;
  int sock_ = -1;
  int event_fd_ = -1;  // server's doorbell (shared across clients)
  int model_input_dim_ = 0;

  std::mutex mu_;  // serializes Request(): SPSC ring, one producer at a time
  uint64_t next_req_id_ = 0;
  uint64_t timeouts_ = 0;
  bool healthy_ = true;

  ClientMetrics metrics_;
};

// Reconnection behaviour for a self-healing RemotePolicy.
struct ReconnectConfig {
  ServeClientConfig client;  // how to (re)connect, incl. timeouts
  BackoffConfig backoff{Milliseconds(10), Seconds(2.0), 2.0, 0.25};
  uint64_t seed = 1;  // jitter stream; derive per client to avoid stampedes
};

// Policy adapter: served inference with graceful local fallback and
// self-healing reconnection.
class RemotePolicy : public Policy {
 public:
  // `client` may be nullptr (e.g. the server was unreachable at startup).
  // While there is no healthy client every decision comes from `fallback`
  // and counts in serve.fallback_total, and a new client is connected per
  // `reconnect` on a jittered backoff probe schedule: probes are free when
  // no socket exists (immediate connect failure) and bounded by
  // connect_timeout when a server is half-up.
  RemotePolicy(std::unique_ptr<ServeClient> client, std::shared_ptr<const Policy> fallback,
               ReconnectConfig reconnect);

  double Act(const StateView& view) const override;
  std::string name() const override { return "astraea-remote"; }

  const ServeClient* client() const { return client_.get(); }
  ServeClient* mutable_client() { return client_.get(); }
  const Policy& fallback() const { return *fallback_; }
  uint64_t reconnects() const;

 private:
  // Returns the client to use for this decision, probing for a new one first
  // when the current one is dead/absent and a probe is due.
  std::shared_ptr<ServeClient> HealthyClient() const;

  mutable std::mutex mu_;  // guards client_ swaps and the probe schedule
  mutable std::shared_ptr<ServeClient> client_;
  std::shared_ptr<const Policy> fallback_;
  ReconnectConfig reconnect_;
  mutable ExponentialBackoff backoff_;
  mutable TimeNs next_probe_ns_ = 0;  // monotonic; 0 = probe immediately
  mutable uint64_t reconnects_ = 0;
  RemotePolicyMetrics metrics_;
};

// Convenience: connect to `socket_path` and wrap the result in a
// self-healing RemotePolicy over `fallback`. Logs a warning when the server
// is unreachable — callers always get a usable policy that will attach (or
// re-attach) whenever a server appears.
std::shared_ptr<const Policy> MakeServedPolicy(const std::string& socket_path,
                                               TimeNs rpc_timeout,
                                               std::shared_ptr<const Policy> fallback);

}  // namespace serve
}  // namespace astraea

#endif  // SRC_SERVE_REMOTE_POLICY_H_
