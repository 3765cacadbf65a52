#include "src/serve/remote_policy.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "src/ipc/uds.h"
#include "src/serve/serve_metrics.h"
#include "src/serve/serve_protocol.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace astraea {
namespace serve {

std::unique_ptr<ServeClient> ServeClient::Connect(const ServeClientConfig& config) {
  ipc::MappedRegion region = ipc::CreateRegion();
  if (!region) {
    return nullptr;
  }
  const int sock = ipc::ConnectUnix(config.socket_path);
  if (sock < 0) {
    return nullptr;
  }
  ClientHello hello{};
  hello.magic = kProtocolMagic;
  hello.version = kProtocolVersion;
  hello.ring_slots = ipc::kRingSlots;
  hello.slot_payload_bytes = ipc::kSlotPayloadBytes;
  const int region_fd = region.fd();
  if (!ipc::SendWithFds(sock, &hello, sizeof(hello), &region_fd, 1)) {
    close(sock);
    return nullptr;
  }
  ServerHello reply{};
  int fds[2] = {-1, -1};
  size_t nfds = 0;
  if (!ipc::RecvWithFds(sock, &reply, sizeof(reply), fds, 2, &nfds, config.connect_timeout)) {
    close(sock);
    return nullptr;
  }
  for (size_t i = 1; i < nfds; ++i) {
    close(fds[i]);
  }
  if (reply.magic != kProtocolMagic || reply.version != kProtocolVersion ||
      reply.accepted == 0 || nfds < 1) {
    if (nfds >= 1) {
      close(fds[0]);
    }
    close(sock);
    return nullptr;
  }
  return std::unique_ptr<ServeClient>(new ServeClient(
      config, std::move(region), sock, fds[0], static_cast<int>(reply.model_input_dim)));
}

ServeClient::ServeClient(ServeClientConfig config, ipc::MappedRegion region, int sock,
                         int event_fd, int model_input_dim)
    : config_(std::move(config)),
      region_(std::move(region)),
      sock_(sock),
      event_fd_(event_fd),
      model_input_dim_(model_input_dim),
      metrics_(RegisterClientMetrics()) {
  RegisterServeMetrics();
}

ServeClient::~ServeClient() {
  if (sock_ >= 0) {
    close(sock_);
  }
  if (event_fd_ >= 0) {
    close(event_fd_);
  }
}

bool ServeClient::healthy() const { return healthy_; }

void ServeClient::MarkDead() {
  if (healthy_) {
    healthy_ = false;
    ASTRAEA_LOG(Warning) << "serve: server unreachable; degrading to local fallback policy";
  }
}

bool ServeClient::CheckServerAlive() {
  if (!ipc::PeerAlive(sock_)) {
    MarkDead();
    return false;
  }
  return true;
}

std::optional<double> ServeClient::Request(std::span<const float> state) {
  const RequestResult result = RequestDetailed(state);
  if (!result.ok()) {
    return std::nullopt;
  }
  return result.action;
}

RequestResult ServeClient::RequestDetailed(std::span<const float> state) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!healthy_) {
    return {RequestOutcome::kDead, 0.0};
  }
  if (state.empty() || state.size() > kMaxStateDim) {
    return {RequestOutcome::kError, 0.0};
  }
  metrics_.requests_total.Increment();
  const uint64_t id = ++next_req_id_;
  const TimeNs t0 = ipc::MonotonicNowNs();
  const TimeNs deadline = t0 + std::max<TimeNs>(config_.rpc_timeout, 0);
  RequestRecord req{};
  req.req_id = id;
  req.deadline_ns = static_cast<uint64_t>(deadline);
  req.state_dim = static_cast<uint32_t>(state.size());
  std::copy(state.begin(), state.end(), req.state);
  req.crc = RequestCrc(req);

  if (!region_->request.TryPush(&req, sizeof(req))) {
    // Ring full: the server has not consumed anything for a whole ring's
    // worth of requests — check whether it is still there at all.
    CheckServerAlive();
    metrics_.timeouts_total.Increment();
    return {RequestOutcome::kTimeout, 0.0};
  }
  metrics_.outstanding.Add(1.0);
  // Dekker handshake with the server's idle park (see SpscRing docs): the
  // push's doorbell bump must be globally visible before the parked-flag
  // read, and a parked server is woken through its shared eventfd.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (region_->request.consumer_parked.load(std::memory_order_relaxed) != 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = write(event_fd_, &one, sizeof(one));
  }

  uint32_t seen = region_->response.doorbell.load(std::memory_order_acquire);
  while (true) {
    ResponseRecord resp{};
    while (region_->response.TryPop(&resp, sizeof(resp))) {
      if (!ValidResponse(resp)) {
        // A record that fails its CRC means the region can no longer be
        // trusted; stop using it rather than risk acting on garbage.
        metrics_.corrupt_total.Increment();
        MarkDead();
        metrics_.outstanding.Add(-1.0);
        return {RequestOutcome::kCorrupt, 0.0};
      }
      if (resp.req_id < id) {
        continue;  // stale answer to a request we already gave up on
      }
      metrics_.outstanding.Add(-1.0);
      if (resp.req_id != id) {
        return {RequestOutcome::kError, 0.0};
      }
      if (resp.status == static_cast<uint32_t>(ResponseStatus::kRejected)) {
        // Admission shed: the server told us *now* it cannot make the
        // deadline. The serving path is alive and healthy — this is load,
        // not failure — so fall back for this decision only, cheaply.
        metrics_.rejected_total.Increment();
        return {RequestOutcome::kRejected, 0.0};
      }
      if (resp.status != static_cast<uint32_t>(ResponseStatus::kOk) ||
          !std::isfinite(resp.action)) {
        return {RequestOutcome::kError, 0.0};
      }
      metrics_.latency_seconds.Observe(ToSeconds(ipc::MonotonicNowNs() - t0));
      return {RequestOutcome::kOk, std::clamp(static_cast<double>(resp.action), -1.0, 1.0)};
    }
    const TimeNs now = ipc::MonotonicNowNs();
    if (now >= deadline) {
      ++timeouts_;
      metrics_.timeouts_total.Increment();
      metrics_.outstanding.Add(-1.0);
      // Distinguish "slow" (per-request fallback, keep trying) from "dead"
      // (permanent fallback, stop paying the timeout on every decision).
      CheckServerAlive();
      return {RequestOutcome::kTimeout, 0.0};
    }
    seen = ipc::WaitDoorbell(&region_->response, seen, deadline - now);
  }
}

RemotePolicy::RemotePolicy(std::unique_ptr<ServeClient> client,
                           std::shared_ptr<const Policy> fallback,
                           ReconnectConfig reconnect)
    : client_(std::move(client)),
      fallback_(std::move(fallback)),
      reconnect_(std::move(reconnect)),
      backoff_(reconnect_.backoff, reconnect_.seed),
      metrics_(RegisterRemotePolicyMetrics()) {
  RegisterServeMetrics();
}

uint64_t RemotePolicy::reconnects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reconnects_;
}

std::shared_ptr<ServeClient> RemotePolicy::HealthyClient() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (client_ != nullptr && client_->healthy()) {
      return client_;  // shared_ptr copy: safe against a concurrent swap
    }
    const TimeNs now = ipc::MonotonicNowNs();
    if (now < next_probe_ns_) {
      return nullptr;  // between probes: fallback at zero per-decision cost
    }
    // Advance the schedule *before* probing and drop the lock for the
    // Connect() itself: a half-up server can hold a probe for the full
    // connect_timeout, and concurrent Act() callers must keep falling back
    // instantly instead of queueing on the mutex behind it.
    next_probe_ns_ = now + backoff_.NextDelay();
  }
  std::unique_ptr<ServeClient> fresh = ServeClient::Connect(reconnect_.client);
  if (fresh == nullptr) {
    return nullptr;  // schedule already advanced; nothing else to do
  }
  std::lock_guard<std::mutex> lock(mu_);
  client_ = std::shared_ptr<ServeClient>(std::move(fresh));
  backoff_.Reset();
  next_probe_ns_ = 0;
  ++reconnects_;
  metrics_.reconnects_total.Increment();
  ASTRAEA_LOG(Info) << "serve: (re)attached to inference server at "
                    << reconnect_.client.socket_path << " (attach #" << reconnects_ << ")";
  return client_;
}

double RemotePolicy::Act(const StateView& view) const {
  if (const std::shared_ptr<ServeClient> client = HealthyClient()) {
    const RequestResult result = client->RequestDetailed(view.state_vector);
    if (result.ok()) {
      return result.action;
    }
  }
  metrics_.fallback_total.Increment();
  return fallback_->Act(view);
}

std::shared_ptr<const Policy> MakeServedPolicy(const std::string& socket_path,
                                               TimeNs rpc_timeout,
                                               std::shared_ptr<const Policy> fallback) {
  ServeClientConfig config;
  config.socket_path = socket_path;
  config.rpc_timeout = rpc_timeout;
  std::unique_ptr<ServeClient> client = ServeClient::Connect(config);
  if (client == nullptr) {
    ASTRAEA_LOG(Warning) << "serve: cannot reach inference server at " << socket_path
                         << "; decisions use the local fallback until one appears";
  }
  ReconnectConfig reconnect;
  reconnect.client = config;
  // Decorrelate probe jitter across processes sharing a socket path.
  reconnect.seed = std::hash<std::string>{}(socket_path) ^
                   (static_cast<uint64_t>(getpid()) << 32) ^ 0x5DEECE66DULL;
  return std::make_shared<RemotePolicy>(std::move(client), std::move(fallback),
                                        std::move(reconnect));
}

}  // namespace serve
}  // namespace astraea
