// Every serve.* metric, one struct of registry references per component.
// Each name is spelled once, in the function that builds its component's
// struct. Registering a name zero-values it (as invariants.violations_total
// is), so a scrape (dashboard, bench JSON, CI assertion) taken before the
// first request/shed/reconnect still contains the key instead of silently
// missing it. Every component also calls RegisterServeMetrics() at
// construction — the server registers the client-side names too (and vice
// versa) because a metrics dump from either process is read by the same
// tooling.

#ifndef SRC_SERVE_SERVE_METRICS_H_
#define SRC_SERVE_SERVE_METRICS_H_

#include "src/util/metrics.h"

namespace astraea {
namespace serve {

// InferenceServer (see inference_server.h for what each one counts).
struct ServerMetrics {
  Counter& requests_total;
  Counter& batches_total;
  Counter& bad_requests_total;
  Counter& responses_dropped_total;
  Counter& reloads_total;
  Counter& reload_errors_total;
  Counter& shed_total;
  Counter& drain_rounds;
  Counter& parks_total;
  Gauge& clients;
  Gauge& queue_depth;
  Gauge& est_batch_latency_seconds;
  Histogram& batch_size;
  Histogram& service_latency_seconds;
};

// ServeClient: one shm connection's requests and their outcomes.
struct ClientMetrics {
  Counter& requests_total;
  Counter& timeouts_total;
  Counter& corrupt_total;
  Counter& rejected_total;
  Gauge& outstanding;
  Histogram& latency_seconds;
};

// RemotePolicy: decisions served by the local fallback, and reconnections.
struct RemotePolicyMetrics {
  Counter& fallback_total;
  Counter& reconnects_total;
};

struct SupervisorMetrics {
  Counter& restarts_total;
};

// Each registers its component's names in MetricsRegistry::Global() and
// returns references to them (stable for the process lifetime).
ServerMetrics RegisterServerMetrics();
ClientMetrics RegisterClientMetrics();
RemotePolicyMetrics RegisterRemotePolicyMetrics();
SupervisorMetrics RegisterSupervisorMetrics();

// All four of the above. Idempotent; cheap after the first call (registry
// lookups by name).
void RegisterServeMetrics();

}  // namespace serve
}  // namespace astraea

#endif  // SRC_SERVE_SERVE_METRICS_H_
