#include "src/serve/serve_metrics.h"

namespace astraea {
namespace serve {

ServerMetrics RegisterServerMetrics() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  return {reg.GetCounter("serve.requests_total"),
          reg.GetCounter("serve.batches_total"),
          reg.GetCounter("serve.bad_requests_total"),
          reg.GetCounter("serve.responses_dropped_total"),
          reg.GetCounter("serve.reloads_total"),
          reg.GetCounter("serve.reload_errors_total"),
          reg.GetCounter("serve.shed_total"),
          reg.GetCounter("serve.drain_rounds"),
          reg.GetCounter("serve.parks_total"),
          reg.GetGauge("serve.clients"),
          reg.GetGauge("serve.queue_depth"),
          reg.GetGauge("serve.est_batch_latency_seconds"),
          reg.GetHistogram("serve.batch_size"),
          reg.GetHistogram("serve.service_latency_seconds")};
}

ClientMetrics RegisterClientMetrics() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  return {reg.GetCounter("serve.client.requests_total"),
          reg.GetCounter("serve.client.timeouts_total"),
          reg.GetCounter("serve.client.corrupt_total"),
          reg.GetCounter("serve.client.rejected_total"),
          reg.GetGauge("serve.client.outstanding"),
          reg.GetHistogram("serve.client.latency_seconds")};
}

RemotePolicyMetrics RegisterRemotePolicyMetrics() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  return {reg.GetCounter("serve.fallback_total"),
          reg.GetCounter("serve.client.reconnects_total")};
}

SupervisorMetrics RegisterSupervisorMetrics() {
  return {MetricsRegistry::Global().GetCounter("serve.supervisor.restarts_total")};
}

void RegisterServeMetrics() {
  RegisterServerMetrics();
  RegisterClientMetrics();
  RegisterRemotePolicyMetrics();
  RegisterSupervisorMetrics();
}

}  // namespace serve
}  // namespace astraea
