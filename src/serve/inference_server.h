// Out-of-process inference server (paper §4, Fig. 16's serving boundary).
//
// One thread owns everything: it accepts clients over the unix-socket control
// channel, maps their shared-memory ring pairs, and runs a deadline batcher —
// requests drained from all client rings are flushed through one batched
// forward pass (Mlp::InferBatchSpan) when either `max_batch` requests are
// pending or the oldest pending request has waited `batch_window`. This is
// the repo's one batcher: paper §4's shared inference service.
//
// The actor is read with LoadActorFile (src/nn/mlp.h) at construction and on
// hot reload: RequestReload() (wired to SIGHUP in tools/astraea_serve) makes
// the loop re-load it from `model_path` between batches — never mid-batch —
// so an atomic-symlink swap of the checkpoint upgrades the model with zero
// dropped requests. A failed load keeps the old actor serving.
//
// Failure injection (src/util/failpoint.h):
//   serve.flush.mid_batch   after requests are consumed from client rings,
//                           before any response is written — a crash here is
//                           the worst case for clients (requests swallowed),
//                           and must degrade every one of them to their local
//                           fallback policy.
//   serve.respond.corrupt   "throw" action corrupts one response record's CRC
//                           instead of throwing — exercises the client-side
//                           validation path end to end.
//
// Admission control (overload shed): every request carries the client's
// absolute deadline. At drain time the server projects the request's
// completion from its queue position: it joins behind pending/max_batch full
// batches, each costing ~EWMA(flush latency), so
//   projected = now + shed_margin * EWMA(flush) * (batches_ahead + 1).
// A request that cannot make its deadline — because the batcher is backlogged
// or inference got slow — gets an immediate kRejected response instead of
// being served late, so the client falls back at once rather than burning its
// whole rpc_timeout. The drain consumes every ring (bounded by a generous
// backstop cap), because a request left in its ring ages invisibly and can
// then only slow-fail; each flush serves one max_batch chunk and leaves the
// remainder queued. Requests are drained round-robin, one per client per
// round, so one hot client cannot starve the rest out of a batch. Rejections
// do not consume batch slots.
//
// Metrics (MetricsRegistry::Global()):
//   serve.requests_total / serve.batches_total / serve.bad_requests_total /
//   serve.responses_dropped_total / serve.reloads_total /
//   serve.reload_errors_total / serve.shed_total / serve.drain_rounds /
//   serve.parks_total (counters; a park is one epoll_wait of the idle loop)
//   serve.clients / serve.queue_depth / serve.est_batch_latency_seconds
//   (gauges)
//   serve.batch_size / serve.service_latency_seconds (histograms; latency is
//   ring-enqueue-drain to response-publish, i.e. the server-side component of
//   a decision's end-to-end latency)
// All serve.* names are pre-registered (zero-valued) at construction — see
// serve_metrics.h.

#ifndef SRC_SERVE_INFERENCE_SERVER_H_
#define SRC_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/ipc/shm_ring.h"
#include "src/nn/mlp.h"
#include "src/serve/serve_metrics.h"
#include "src/util/time.h"

namespace astraea {
namespace serve {

struct InferenceServerConfig {
  std::string socket_path;
  std::string model_path;
  TimeNs batch_window = Microseconds(500);
  size_t max_batch = 64;
  // Idle park duration per wait (bounded so Stop() is prompt), and how often
  // a server that does not park accepts new clients and reaps dead ones.
  TimeNs idle_wait = Milliseconds(5);
  // Admission control: a drained request is shed (kRejected) when its
  // queue-position projection, now + shed_margin * EWMA(flush latency) *
  // (batches_ahead + 1), exceeds its deadline. 0 disables deadline shedding
  // (requests with deadline 0 are never shed either).
  double shed_margin = 1.0;
};

class InferenceServer {
 public:
  // Binds the socket and loads the model; throws std::runtime_error /
  // SerializationError on failure.
  explicit InferenceServer(InferenceServerConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Serves until Stop(). Run this on a dedicated thread (or as the main
  // thread of astraea_serve).
  void Run();

  // Async-signal-safe: both only store an atomic flag read by the loop.
  void Stop() { stop_.store(true, std::memory_order_release); }
  void RequestReload() { reload_.store(true, std::memory_order_release); }

  const InferenceServerConfig& config() const { return config_; }
  int model_input_dim() const { return model_input_dim_.load(std::memory_order_acquire); }
  // Observable progress for tests / the CLI status line.
  uint64_t served_total() const { return served_total_.load(std::memory_order_acquire); }
  size_t client_count() const { return client_count_.load(std::memory_order_acquire); }
  uint64_t reload_count() const { return reloads_done_.load(std::memory_order_acquire); }
  uint64_t shed_count() const { return shed_total_count_.load(std::memory_order_acquire); }

 private:
  struct Client {
    int sock = -1;
    ipc::MappedRegion region;
  };
  struct Pending {
    size_t client_index;
    uint64_t req_id;
    TimeNs enqueue_ns;  // monotonic receive time on the server
  };

  void AcceptClients();
  void DrainRequests();
  void FlushBatch();
  void MaybeReload();
  // Spins on the request rings for up to kPollAfterFlush; true once one holds
  // a request.
  bool PollRequests() const;
  void IdleWait();
  void ReapDeadClients();
  void RespondError(Client* client, uint64_t req_id, uint32_t status);

  InferenceServerConfig config_;
  std::unique_ptr<Mlp> actor_;
  std::atomic<int> model_input_dim_{0};

  int listen_fd_ = -1;
  int event_fd_ = -1;
  int epoll_fd_ = -1;

  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Pending> pending_;
  std::vector<float> batch_states_;  // row-major [pending x model_input_dim]
  size_t drain_cursor_ = 0;          // round-robin start, rotated every pass
  // EWMA of recent flush (inference + publish) wall time; the admission
  // policy's estimate of how long a newly admitted request will wait.
  TimeNs est_flush_ns_ = 0;
  bool accept_due_ = true;  // a park saw the listen socket readable
  TimeNs next_housekeeping_ns_ = 0;
  bool flushed_since_park_ = false;

  std::atomic<bool> stop_{false};
  std::atomic<bool> reload_{false};
  std::atomic<uint64_t> served_total_{0};
  std::atomic<size_t> client_count_{0};
  std::atomic<uint64_t> reloads_done_{0};
  std::atomic<uint64_t> shed_total_count_{0};

  ServerMetrics metrics_;
};

}  // namespace serve
}  // namespace astraea

#endif  // SRC_SERVE_INFERENCE_SERVER_H_
