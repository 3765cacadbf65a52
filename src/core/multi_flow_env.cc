#include "src/core/multi_flow_env.h"

#include <algorithm>

#include "src/util/logging.h"

namespace astraea {

EnvEpisodeConfig SampleEpisode(const TrainingEnvRanges& ranges, Rng* rng) {
  EnvEpisodeConfig config;
  config.bandwidth = rng->Uniform(ranges.bandwidth_lo, ranges.bandwidth_hi);
  config.base_rtt = static_cast<TimeNs>(
      rng->Uniform(static_cast<double>(ranges.rtt_lo), static_cast<double>(ranges.rtt_hi)));
  config.buffer_bdp = rng->Uniform(ranges.buffer_bdp_lo, ranges.buffer_bdp_hi);
  config.seed = static_cast<uint64_t>(rng->UniformInt(1, 1'000'000'000));

  const int n = static_cast<int>(rng->UniformInt(ranges.flows_lo, ranges.flows_hi));
  // Poisson arrivals with a mean spacing of 2s, so episodes contain both
  // solo operation and multi-flow competition (§3.2).
  TimeNs t = 0;
  for (int i = 0; i < n; ++i) {
    FlowSchedule f;
    f.start = t;
    f.duration = -1;  // run to episode end
    // RTT heterogeneity: up to +50% extra one-way delay.
    f.extra_one_way_delay =
        static_cast<TimeNs>(rng->Uniform(0.0, 0.5 * static_cast<double>(config.base_rtt)));
    config.flows.push_back(f);
    t += Seconds(rng->Exponential(2.0));
  }
  return config;
}

MultiFlowEnv::MultiFlowEnv(EnvEpisodeConfig config, const AstraeaHyperparameters& hp,
                           std::shared_ptr<const Policy> policy, std::vector<Transition>* out,
                           double noise_std, Rng* rng)
    : config_(std::move(config)), hp_(hp), out_(out), noise_std_(noise_std), rng_(rng) {
  ASTRAEA_CHECK(!config_.flows.empty());
  next_update_ = hp_.model_update_interval;
  DumbbellConfig link;
  link.bandwidth = config_.bandwidth;
  link.base_rtt = config_.base_rtt;
  link.buffer_bdp = config_.buffer_bdp;
  link.random_loss = config_.random_loss;
  link.trace = config_.trace;
  link.queue_factory = config_.queue_factory;
  link.seed = config_.seed;
  scenario_ = std::make_unique<DumbbellScenario>(link);

  link_info_.base_one_way_delay = config_.base_rtt / 2;
  link_info_.buffer_bytes = scenario_->BufferBytes();
  link_info_.bandwidth = config_.bandwidth;

  controllers_.resize(config_.flows.size(), nullptr);
  pending_.resize(config_.flows.size());

  for (size_t i = 0; i < config_.flows.size(); ++i) {
    const FlowSchedule& sched = config_.flows[i];
    const int flow_id = static_cast<int>(i);
    auto make_cc = [this, policy, flow_id] {
      auto cc = std::make_unique<AstraeaController>(policy, hp_);
      cc->set_action_hook([this, flow_id](const StateView& view, double proposed) {
        return OnDecision(flow_id, view, proposed);
      });
      controllers_[flow_id] = cc.get();
      return cc;
    };
    const int assigned = scenario_->AddFlowWithFactory(
        "astraea-train", make_cc, sched.start, sched.duration, sched.extra_one_way_delay);
    ASTRAEA_CHECK(assigned == flow_id);
  }
}

std::vector<float> MultiFlowEnv::ObserveGlobalState() const {
  std::vector<const MtpReport*> reports;
  for (int id : scenario_->network().ActiveFlowIds()) {
    const Sender& sender = scenario_->network().sender(id);
    if (sender.last_report().now > 0) {
      reports.push_back(&sender.last_report());
    }
  }
  return BuildGlobalState(reports, link_info_, 1500);
}

RewardBreakdown MultiFlowEnv::ComputeGlobalReward() const {
  std::vector<FlowRewardInput> inputs;
  for (int id : scenario_->network().ActiveFlowIds()) {
    AstraeaController* cc = controllers_[static_cast<size_t>(id)];
    const Sender& sender = scenario_->network().sender(id);
    if (cc == nullptr || sender.last_report().now <= 0) {
      continue;
    }
    const MtpReport& report = sender.last_report();
    FlowRewardInput in;
    in.thr_bps = report.thr_bps;
    in.avg_thr_bps = cc->state_block().AvgThroughputBps();
    in.stability = cc->state_block().ThroughputStability();
    in.loss_bps = report.loss_bps;
    in.avg_lat = report.avg_rtt;
    in.pacing_bps = report.pacing_bps;
    inputs.push_back(in);
  }
  return ComputeReward(inputs, config_.bandwidth, link_info_.base_one_way_delay, hp_.reward);
}

double MultiFlowEnv::OnDecision(int flow_id, const StateView& view, double proposed) {
  const double action =
      std::clamp(proposed + rng_->Normal(0.0, noise_std_), -1.0, 1.0);

  const std::vector<float> global_state = ObserveGlobalState();
  const std::vector<float> local_state(view.state_vector.begin(), view.state_vector.end());
  const RewardBreakdown reward = ComputeGlobalReward();

  PendingDecision& pending = pending_[static_cast<size_t>(flow_id)];
  if (pending.valid) {
    // Complete the previous transition: its reward is the global score of the
    // interval that just elapsed, and (g', s') is what we observe now.
    Transition t;
    t.global_state = pending.global_state;
    t.local_state = pending.local_state;
    t.action = {pending.action};
    t.reward = static_cast<float>(reward.total);
    t.next_global_state = global_state;
    t.next_local_state = local_state;
    t.terminal = false;
    out_->push_back(std::move(t));

    stats_.mean_reward += reward.total;
    stats_.mean_r_fair += reward.r_fair;
    stats_.mean_r_thr += reward.r_thr;
    stats_.mean_r_lat += reward.r_lat;
    stats_.mean_r_loss += reward.r_loss;
    stats_.mean_r_stab += reward.r_stab;
    ++stats_.decisions;
  }
  pending.valid = true;
  pending.global_state = global_state;
  pending.local_state = local_state;
  pending.action = static_cast<float>(action);
  return action;
}

bool MultiFlowEnv::AdvanceOneInterval() {
  if (done()) {
    return false;
  }
  scenario_->Run(next_update_);
  next_update_ += hp_.model_update_interval;
  return true;
}

EpisodeStats MultiFlowEnv::Finish() {
  ASTRAEA_CHECK(!finished_);
  finished_ = true;
  scenario_->Run(config_.episode_length);
  if (stats_.decisions > 0) {
    stats_.mean_reward /= stats_.decisions;
    stats_.mean_r_fair /= stats_.decisions;
    stats_.mean_r_thr /= stats_.decisions;
    stats_.mean_r_lat /= stats_.decisions;
    stats_.mean_r_loss /= stats_.decisions;
    stats_.mean_r_stab /= stats_.decisions;
  }
  return stats_;
}

}  // namespace astraea
