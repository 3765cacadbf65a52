#include "src/core/policy.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/util/logging.h"

namespace astraea {

std::shared_ptr<MlpPolicy> MlpPolicy::LoadFromFile(const std::string& path) {
  return std::make_shared<MlpPolicy>(LoadActorFile(path));
}

double MlpPolicy::Act(const StateView& view) const {
  const std::vector<float> out = actor_.Infer(view.state_vector);
  return std::clamp(static_cast<double>(out[0]), -1.0, 1.0);
}

double DistilledPolicy::Act(const StateView& view) const {
  const MtpReport& report = *view.report;
  if (report.acked_packets == 0) {
    // Nothing delivered this MTP (post-drain or just started): probe upward.
    return 1.0;
  }

  const double cwnd_pkts =
      std::max(static_cast<double>(report.cwnd_bytes) / view.mss, 1.0);
  const double lat_s = ToSeconds(std::max<TimeNs>(report.avg_rtt, 1));
  const double lat_min_s = ToSeconds(std::max<TimeNs>(view.lat_min, 1));
  const double rtt_for_loop = std::max(lat_s, lat_min_s);

  // Own standing backlog at the bottleneck (Vegas identity):
  //   backlog = cwnd * (1 - lat_min / lat).
  const double backlog_pkts =
      lat_s > lat_min_s ? cwnd_pkts * (1.0 - lat_min_s / lat_s) : 0.0;

  // Close `gain` of the backlog error per RTT; convert to a per-MTP
  // multiplicative step and normalize by Eq. 3's alpha to get the action.
  const double target_pkts =
      config_.target_backlog_pkts * std::max(view.backlog_target_scale, 1.0);
  const double err_pkts = target_pkts - backlog_pkts;
  const double mtp_s = ToSeconds(view.mtp);
  const double per_mtp_fraction =
      config_.gain * err_pkts * (mtp_s / rtt_for_loop) / cwnd_pkts;
  double action = per_mtp_fraction / view.action_alpha;

  // Far below the target the loop is not in its small-signal regime: probe
  // multiplicatively at full rate (the learned policies show the same
  // saturated action away from equilibrium — Fig. 17's plateaus). Without
  // this, the gain normalization makes ramp-up glacial on large-RTT paths.
  if (backlog_pkts < target_pkts / 2.0) {
    action = 1.0;
  }

  // Congestive-loss guard: sustained loss above the threshold (well above any
  // non-congestive wire-loss rate) forces a decrease even if the latency
  // signal is muted (e.g. tiny buffers that drop before queueing).
  if (report.loss_ratio > config_.loss_backoff_threshold) {
    action = std::min(action, -std::clamp(5.0 * report.loss_ratio, 0.1, 1.0));
  }
  return std::clamp(action, -1.0, 1.0);
}

std::shared_ptr<const Policy> LoadDefaultPolicy(const std::string& path) {
  const char* env = std::getenv("ASTRAEA_MODEL");
  const std::string model = !path.empty() ? path : env != nullptr ? env : "";
  if (model.empty()) {
    return std::make_shared<DistilledPolicy>();
  }
  auto policy = MlpPolicy::LoadFromFile(model);
  ASTRAEA_LOG(Info) << "loaded Astraea policy checkpoint: " << model;
  return policy;
}

uint64_t ApplyActionToCwnd(uint64_t cwnd_bytes, double action, double alpha, uint32_t mss) {
  action = std::clamp(action, -1.0, 1.0);
  double next = static_cast<double>(cwnd_bytes);
  if (action >= 0.0) {
    next *= 1.0 + alpha * action;
  } else {
    next /= 1.0 - alpha * action;
  }
  return std::max<uint64_t>(static_cast<uint64_t>(std::llround(next)), 2ULL * mss);
}

}  // namespace astraea
