#include "src/serve/inference_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "src/ipc/uds.h"
#include "src/serve/serve_metrics.h"
#include "src/serve/serve_protocol.h"
#include "src/util/failpoint.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace astraea {
namespace serve {

namespace {

// How long IdleWait polls the request rings after a flush before it parks. A
// closed-loop client answers its response with its next request within a few
// microseconds, so the poll catches it without the park's eventfd write,
// epoll_wait and wake-up; an idle server parks this long after its last flush.
constexpr TimeNs kPollAfterFlush = Microseconds(50);

// How long the accept path may wait for a client's hello message.
constexpr TimeNs kHandshakeTimeout = Milliseconds(200);

}  // namespace

InferenceServer::InferenceServer(InferenceServerConfig config)
    : config_(std::move(config)), metrics_(RegisterServerMetrics()) {
  actor_ = std::make_unique<Mlp>(LoadActorFile(config_.model_path));
  model_input_dim_.store(actor_->input_size(), std::memory_order_release);
  if (actor_->input_size() > static_cast<int>(kMaxStateDim)) {
    throw std::runtime_error("actor input dim exceeds serving slot capacity");
  }

  listen_fd_ = ipc::ListenUnix(config_.socket_path);
  if (listen_fd_ < 0) {
    throw std::runtime_error("cannot listen on serve socket: " + config_.socket_path);
  }
  event_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (event_fd_ < 0 || epoll_fd_ < 0) {
    throw std::runtime_error("cannot create serve wakeup fds");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = event_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  // Every serve.* name (both sides of the boundary) exists zero-valued from
  // this point on — scrapes taken before the first request still have keys.
  RegisterServeMetrics();
}

InferenceServer::~InferenceServer() {
  for (auto& client : clients_) {
    if (client->sock >= 0) {
      close(client->sock);
    }
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
  if (event_fd_ >= 0) {
    close(event_fd_);
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    unlink(config_.socket_path.c_str());
  }
}

void InferenceServer::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (pending_.empty()) {
      // Never reload over a queued remainder: batch_states_ rows are sized by
      // the current model's input dim, and a reload may change it. Backlog
      // drains at max_batch per flush, so the reload lands within a few
      // iterations even under overload.
      MaybeReload();
    }
    // Accepting and reaping cost syscalls, so they run only after a park saw
    // the listen socket readable, or on a timer: a server kept busy by polling
    // may not park for a long time.
    const TimeNs turn = ipc::MonotonicNowNs();
    if (accept_due_ || turn >= next_housekeeping_ns_) {
      if (pending_.empty()) {
        ReapDeadClients();
      }
      AcceptClients();
      accept_due_ = false;
      next_housekeeping_ns_ = turn + config_.idle_wait;
    }
    DrainRequests();
    if (pending_.empty()) {
      IdleWait();
      continue;
    }
    const TimeNs now = ipc::MonotonicNowNs();
    const TimeNs deadline = pending_.front().enqueue_ns + config_.batch_window;
    // Clients are synchronous (one outstanding request each), so once every
    // client has a request pending, no more can arrive: flush now instead of
    // burning the rest of the batch window on a full batch.
    if (pending_.size() >= config_.max_batch || pending_.size() >= clients_.size() ||
        now >= deadline) {
      FlushBatch();
    } else {
      // Sub-window spin: keep draining so late arrivals join this batch. The
      // yield bounds CPU burn without giving up sub-millisecond reactivity.
      std::this_thread::yield();
    }
  }
}

void InferenceServer::AcceptClients() {
  while (true) {
    const int sock = ipc::AcceptNonBlocking(listen_fd_);
    if (sock < 0) {
      return;
    }
    ClientHello hello{};
    int fds[2] = {-1, -1};
    size_t nfds = 0;
    const bool got = ipc::RecvWithFds(sock, &hello, sizeof(hello), fds, 2, &nfds,
                                      kHandshakeTimeout);
    for (size_t i = 1; i < nfds; ++i) {
      close(fds[i]);  // protocol sends exactly one fd; drop extras
    }
    if (!got || nfds < 1) {
      if (nfds >= 1) {
        close(fds[0]);
      }
      close(sock);
      continue;
    }
    const bool hello_ok = hello.magic == kProtocolMagic && hello.version == kProtocolVersion &&
                          hello.ring_slots == ipc::kRingSlots &&
                          hello.slot_payload_bytes == ipc::kSlotPayloadBytes;
    ipc::MappedRegion region;
    if (hello_ok) {
      region = ipc::MapRegion(fds[0]);
    }
    ServerHello reply{};
    reply.magic = kProtocolMagic;
    reply.version = kProtocolVersion;
    reply.accepted = region ? 1 : 0;
    reply.model_input_dim = static_cast<uint32_t>(model_input_dim_.load());
    if (!region) {
      close(fds[0]);
      ipc::SendWithFds(sock, &reply, sizeof(reply), nullptr, 0);
      close(sock);
      continue;
    }
    if (!ipc::SendWithFds(sock, &reply, sizeof(reply), &event_fd_, 1)) {
      close(sock);
      continue;  // region unmapped+closed by its destructor
    }
    auto client = std::make_unique<Client>();
    client->sock = sock;
    client->region = std::move(region);
    clients_.push_back(std::move(client));
    client_count_.store(clients_.size(), std::memory_order_release);
    metrics_.clients.Set(static_cast<double>(clients_.size()));
    ASTRAEA_LOG(Info) << "serve: client connected (" << clients_.size() << " active)";
  }
}

void InferenceServer::RespondError(Client* client, uint64_t req_id, uint32_t status) {
  ResponseRecord resp{};
  resp.req_id = req_id;
  resp.status = status;
  resp.action = 0.0f;
  resp.crc = ResponseCrc(resp);
  if (!client->region->response.TryPush(&resp, sizeof(resp))) {
    metrics_.responses_dropped_total.Increment();
  }
  ipc::WakeConsumer(&client->region->response);
}

void InferenceServer::DrainRequests() {
  const size_t n = clients_.size();
  if (n == 0) {
    return;
  }
  const int dim = model_input_dim_.load(std::memory_order_relaxed);
  const TimeNs now = ipc::MonotonicNowNs();
  // Per-flush cost estimate for the admission projection below. Zero until
  // the first flush has been measured — a cold server never sheds.
  const TimeNs unit =
      static_cast<TimeNs>(config_.shed_margin * static_cast<double>(est_flush_ns_));
  // Backstop on admitted backlog, NOT the shed mechanism: requests carrying
  // deadlines self-limit the queue (past a few batches of depth the
  // projection sheds them), so this cap only binds for deadline-less clients.
  // It is deliberately generous — an un-drained request ages invisibly in its
  // ring and can then only slow-fail, which defeats admission control.
  const size_t cap = std::max<size_t>(16 * config_.max_batch, 4096);

  // Round-robin: one request per live client per round, rotating which client
  // goes first across passes, so a single hot client can neither starve the
  // others out of a batch nor monopolize the drain loop. Rejections (bad or
  // shed requests) do not occupy batch slots, so one pass can fast-fail an
  // arbitrary backlog while still filling the batch with viable work.
  const size_t start = drain_cursor_ % n;
  drain_cursor_ = (start + 1) % n;
  // Bounded rounds per pass: with enough clients, one scan round takes longer
  // than the mean arrival interval, so "loop until a round pops nothing"
  // never exits — the drain chases arrivals forever, no flush ever runs, and
  // admitted requests rot in a queue that the admission projection assumed
  // was being served. Eight rounds empties any realistic backlog (synchronous
  // clients queue at most one each); whatever is left waits one flush.
  constexpr uint64_t kMaxRoundsPerPass = 8;
  uint64_t rounds = 0;
  uint64_t drained = 0;
  bool any = true;
  while (any && rounds < kMaxRoundsPerPass && pending_.size() < cap) {
    any = false;
    ++rounds;
    for (size_t k = 0; k < n && pending_.size() < cap; ++k) {
      const size_t c = (start + k) % n;
      Client* client = clients_[c].get();
      RequestRecord req{};
      if (!client->region->request.TryPop(&req, sizeof(req))) {
        continue;
      }
      any = true;
      ++drained;
      metrics_.requests_total.Increment();
      if (!ValidRequest(req) || req.state_dim != static_cast<uint32_t>(dim)) {
        metrics_.bad_requests_total.Increment();
        RespondError(client, req.req_id, static_cast<uint32_t>(ResponseStatus::kBadRequest));
        continue;
      }
      if (config_.shed_margin > 0.0 && req.deadline_ns != 0 && est_flush_ns_ > 0) {
        // Queue-position-aware projection: the request joins behind
        // pending_/max_batch full batches, each costing ~est_flush. Without
        // the position term, a backlogged server would admit everything and
        // deadlines would only be discovered by timeout — slow-fail.
        const TimeNs batches_ahead =
            static_cast<TimeNs>(pending_.size() / config_.max_batch);
        const TimeNs projected_done = now + unit * (batches_ahead + 1);
        if (projected_done > static_cast<TimeNs>(req.deadline_ns)) {
          // Cannot be served before its deadline: shed it NOW so the client
          // falls back immediately instead of discovering the miss by timeout.
          metrics_.shed_total.Increment();
          shed_total_count_.fetch_add(1, std::memory_order_acq_rel);
          RespondError(client, req.req_id, static_cast<uint32_t>(ResponseStatus::kRejected));
          continue;
        }
      }
      batch_states_.insert(batch_states_.end(), req.state, req.state + req.state_dim);
      pending_.push_back(Pending{c, req.req_id, now});
    }
  }
  if (drained > 0) {
    metrics_.drain_rounds.Increment(rounds);
  }
}

void InferenceServer::FlushBatch() {
  // A crash injected here is the worst case for clients: their requests have
  // been consumed from the rings but no response will ever be written. The
  // "stall" action at the same site models a scheduler pause instead.
  const TimeNs flush_start = ipc::MonotonicNowNs();
  ASTRAEA_FAILPOINT("serve.flush.mid_batch");
  // Serve at most one max_batch chunk per flush; the remainder stays queued
  // (and counted by the admission projection) for the next pass. Flushing the
  // whole backlog in one giant forward pass would make the flush-latency
  // estimate meaningless and starve newly arrived requests of drain cycles.
  metrics_.queue_depth.Set(static_cast<double>(pending_.size()));
  const size_t n = std::min(pending_.size(), config_.max_batch);
  const size_t dim = static_cast<size_t>(model_input_dim_.load(std::memory_order_relaxed));
  metrics_.batch_size.Observe(static_cast<double>(n));

  bool infer_ok = true;
  std::span<const float> out;
  try {
    out = actor_->InferBatchSpan(std::span<const float>(batch_states_.data(), n * dim), n);
  } catch (const std::exception& e) {
    ASTRAEA_LOG(Warning) << "serve: batched inference failed: " << e.what();
    infer_ok = false;
  }
  const size_t out_dim = static_cast<size_t>(actor_->output_size());

  const TimeNs now = ipc::MonotonicNowNs();
  for (size_t i = 0; i < n; ++i) {
    const Pending& p = pending_[i];
    Client* client = clients_[p.client_index].get();
    ResponseRecord resp{};
    resp.req_id = p.req_id;
    if (infer_ok) {
      resp.status = static_cast<uint32_t>(ResponseStatus::kOk);
      resp.action = std::clamp(out[i * out_dim], -1.0f, 1.0f);
    } else {
      resp.status = static_cast<uint32_t>(ResponseStatus::kServerError);
      resp.action = 0.0f;
    }
    resp.crc = ResponseCrc(resp);
    try {
      ASTRAEA_FAILPOINT("serve.respond.corrupt");
    } catch (const failpoint::Injected&) {
      resp.crc ^= 0xA5A5A5A5u;  // deliberate CRC damage: client must reject it
    }
    if (!client->region->response.TryPush(&resp, sizeof(resp))) {
      metrics_.responses_dropped_total.Increment();
    }
    ipc::WakeConsumer(&client->region->response);
    metrics_.service_latency_seconds.Observe(ToSeconds(std::max<TimeNs>(now - p.enqueue_ns, 0)));
  }
  served_total_.fetch_add(n, std::memory_order_acq_rel);
  metrics_.batches_total.Increment();
  flushed_since_park_ = true;
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(n));
  batch_states_.erase(batch_states_.begin(),
                      batch_states_.begin() + static_cast<ptrdiff_t>(n * dim));

  // Fold this flush's wall time into the admission estimate. A slow flush
  // (big batch, stalled inference) raises the estimate and starts shedding
  // requests that could no longer make their deadlines; recovery lowers it
  // back and admission widens again. The stall failpoint above lands inside
  // the measured window on purpose.
  const TimeNs flush_cost = std::max<TimeNs>(ipc::MonotonicNowNs() - flush_start, 0);
  est_flush_ns_ = est_flush_ns_ == 0 ? flush_cost : (est_flush_ns_ * 7 + flush_cost) / 8;
  metrics_.est_batch_latency_seconds.Set(ToSeconds(est_flush_ns_));
}

void InferenceServer::MaybeReload() {
  if (!reload_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  try {
    Mlp next = LoadActorFile(config_.model_path);
    if (next.input_size() > static_cast<int>(kMaxStateDim)) {
      throw SerializationError("reloaded actor input dim exceeds serving slot capacity");
    }
    actor_ = std::make_unique<Mlp>(std::move(next));
    model_input_dim_.store(actor_->input_size(), std::memory_order_release);
    metrics_.reloads_total.Increment();
    reloads_done_.fetch_add(1, std::memory_order_acq_rel);
    ASTRAEA_LOG(Info) << "serve: reloaded model from " << config_.model_path;
  } catch (const std::exception& e) {
    // Keep serving the previous actor; a bad swap must not take the service down.
    metrics_.reload_errors_total.Increment();
    ASTRAEA_LOG(Warning) << "serve: model reload failed (" << e.what()
                         << "); keeping previous actor";
  }
}

void InferenceServer::ReapDeadClients() {
  bool changed = false;
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (!ipc::PeerAlive((*it)->sock)) {
      close((*it)->sock);
      it = clients_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed) {
    client_count_.store(clients_.size(), std::memory_order_release);
    metrics_.clients.Set(static_cast<double>(clients_.size()));
    ASTRAEA_LOG(Info) << "serve: client disconnected (" << clients_.size() << " active)";
  }
}

bool InferenceServer::PollRequests() const {
  const TimeNs until = ipc::MonotonicNowNs() + kPollAfterFlush;
  do {
    for (const auto& client : clients_) {
      if (client->region->request.SizeApprox() > 0) {
        return true;
      }
    }
    ipc::CpuRelax();
  } while (ipc::MonotonicNowNs() < until && !stop_.load(std::memory_order_relaxed));
  return false;
}

void InferenceServer::IdleWait() {
  // With no flush since the last park (a handshake in progress, an idle
  // server), park at once.
  if (flushed_since_park_ && ipc::SpinningPays() && PollRequests()) {
    return;
  }
  flushed_since_park_ = false;
  // Only safe when pending_ is empty: reaping renumbers client indices.
  ReapDeadClients();

  // Arm the parked flags, then re-check every ring: a request published
  // between the drain and the park must be noticed before we sleep.
  for (auto& client : clients_) {
    client->region->request.consumer_parked.store(1, std::memory_order_seq_cst);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  bool work = false;
  for (auto& client : clients_) {
    if (client->region->request.SizeApprox() > 0) {
      work = true;
      break;
    }
  }
  if (!work) {
    epoll_event events[2];
    const int timeout_ms = static_cast<int>(
        std::clamp<TimeNs>(config_.idle_wait / kNanosPerMilli, 1, 1000));
    const int ready = epoll_wait(epoll_fd_, events, 2, timeout_ms);
    metrics_.parks_total.Increment();
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.fd == listen_fd_) {
        accept_due_ = true;
      } else {
        // Reset the eventfd counter so the next doorbell write re-arms epoll.
        uint64_t count;
        [[maybe_unused]] const ssize_t got = read(event_fd_, &count, sizeof(count));
      }
    }
  }
  for (auto& client : clients_) {
    client->region->request.consumer_parked.store(0, std::memory_order_release);
  }
}

}  // namespace serve
}  // namespace astraea
