#include "src/eval/scenario.h"

#include <algorithm>

#include "src/util/thread_pool.h"

namespace astraea {

uint64_t BdpBufferBytes(RateBps bandwidth, TimeNs base_rtt, double buffer_bdp) {
  return std::max<uint64_t>(
      static_cast<uint64_t>(buffer_bdp * static_cast<double>(BdpBytes(bandwidth, base_rtt))),
      2 * 1500);
}

const char* QdiscName(Qdisc qdisc) {
  switch (qdisc) {
    case Qdisc::kDropTail:
      return "droptail";
    case Qdisc::kRed:
      return "red";
    case Qdisc::kCoDel:
      return "codel";
    case Qdisc::kEcn:
      return "ecn";
  }
  return "unknown";
}

QueueFactory MakeQueueFactory(Qdisc qdisc, uint64_t capacity_bytes) {
  switch (qdisc) {
    case Qdisc::kDropTail:
      return {};
    case Qdisc::kRed:
      return [capacity_bytes](Rng rng) -> std::unique_ptr<QueueDiscipline> {
        RedConfig red;
        red.capacity_bytes = capacity_bytes;
        return std::make_unique<RedQueue>(red, rng);
      };
    case Qdisc::kCoDel:
      return [capacity_bytes](Rng) -> std::unique_ptr<QueueDiscipline> {
        CoDelConfig codel;
        codel.capacity_bytes = capacity_bytes;
        return std::make_unique<CoDelQueue>(codel);
      };
    case Qdisc::kEcn:
      return [capacity_bytes](Rng) -> std::unique_ptr<QueueDiscipline> {
        EcnConfig ecn;
        ecn.mark_threshold_bytes = kEcnMarkThresholdBytes;
        return std::make_unique<EcnMarkingQueue>(
            std::make_unique<DropTailQueue>(capacity_bytes), ecn);
      };
  }
  return {};
}

DumbbellScenario::DumbbellScenario(DumbbellConfig config) : config_(std::move(config)) {
  network_ = std::make_unique<Network>(config_.seed);
  LinkConfig link;
  link.name = "bottleneck";
  link.rate = config_.bandwidth;
  link.trace = config_.trace;
  link.propagation_delay = config_.base_rtt / 2;  // symmetric path
  link.buffer_bytes = BufferBytes();
  link.random_loss = config_.random_loss;
  link.queue_factory = config_.queue_factory;
  network_->AddLink(link);
}

uint64_t DumbbellScenario::BufferBytes() const {
  return BdpBufferBytes(config_.bandwidth, config_.base_rtt, config_.buffer_bdp);
}

int DumbbellScenario::AddFlow(const std::string& scheme, TimeNs start, TimeNs duration,
                              TimeNs extra_rtt) {
  return AddFlowWithConfig(scheme, SenderConfig{}, start, duration, extra_rtt);
}

int DumbbellScenario::AddFlowWithFactory(const std::string& label, CcFactory factory,
                                         TimeNs start, TimeNs duration, TimeNs extra_rtt) {
  FlowSpec spec;
  spec.scheme = label;
  spec.make_cc = std::move(factory);
  spec.start = start;
  spec.duration = duration;
  spec.extra_one_way_delay = extra_rtt;
  spec.link_path = {0};
  return network_->AddFlow(spec);
}

int DumbbellScenario::AddFlowWithConfig(const std::string& scheme, SenderConfig sender,
                                        TimeNs start, TimeNs duration, TimeNs extra_rtt) {
  FlowSpec spec;
  spec.scheme = scheme;
  spec.make_cc = MakeSchemeFactory(scheme, &options_);
  spec.start = start;
  spec.duration = duration;
  spec.extra_one_way_delay = extra_rtt;
  spec.link_path = {0};
  spec.sender = sender;
  return network_->AddFlow(spec);
}

void DumbbellScenario::Run(TimeNs until) { network_->Run(until); }

ShardedRunResult RunShards(size_t shards, size_t workers,
                           const std::function<ShardResult(size_t shard)>& run_shard) {
  ShardedRunResult result;
  result.shards = ParallelMap(shards, run_shard, workers);
  // ParallelMap returns index-ordered results, so this reduction runs in
  // shard order whatever the worker count.
  for (const ShardResult& shard : result.shards) {
    result.events_executed += shard.events_executed;
    result.bytes_acked += shard.bytes_acked;
    result.bytes_lost += shard.bytes_lost;
    result.max_packet_slots = std::max(result.max_packet_slots, shard.packet_slots);
    result.fingerprint = MixFingerprint(result.fingerprint, shard.fingerprint);
  }
  return result;
}

ShardResult RunDumbbellShard(const ShardedDumbbellConfig& config, size_t shard_index) {
  DumbbellConfig shard_config = config.shard;
  shard_config.seed = Rng::DeriveSeed(config.seed_stream, shard_index);
  DumbbellScenario scenario(shard_config);

  // Stagger starts from a stream derived off the same (stream, shard) pair —
  // decorrelated from the Network's seed but equally a pure function of the
  // shard index.
  Rng starts(Rng::DeriveSeed(config.seed_stream ^ 0x5747A6E5ULL, shard_index));
  TimeNs latest_start = 0;
  for (size_t i = 0; i < config.flows_per_shard; ++i) {
    const TimeNs start =
        config.max_start_stagger > 0 ? starts.UniformInt(0, config.max_start_stagger) : 0;
    latest_start = std::max(latest_start, start);
    scenario.AddFlow(config.scheme, start, config.flow_duration);
  }
  // Run past the last stop so every flow gets its full duration; the extra
  // tail also lets in-flight packets drain back to the pool.
  scenario.Run(latest_start + config.flow_duration + Milliseconds(10));

  Network& net = scenario.network();
  ShardResult result;
  result.events_executed = net.events().executed();
  result.packet_slots = net.packet_pool().capacity();
  result.packets_live = net.packet_pool().live();
  result.packets_recycled = net.packet_pool().recycled();
  uint64_t fp = 0xA57AEA0300000000ULL + shard_index;
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const FlowStats& stats = net.flow_stats(flow);
    result.bytes_acked += stats.bytes_acked;
    result.bytes_lost += stats.bytes_lost;
    fp = MixFingerprint(fp, stats.bytes_sent);
    fp = MixFingerprint(fp, stats.bytes_acked);
    fp = MixFingerprint(fp, stats.bytes_lost);
  }
  fp = MixFingerprint(fp, result.events_executed);
  result.fingerprint = fp;
  return result;
}

ShardedRunResult RunShardedDumbbell(const ShardedDumbbellConfig& config) {
  ShardedRunResult result = RunShards(
      config.shards, config.workers,
      [&config](size_t shard) { return RunDumbbellShard(config, shard); });
  result.flow_seconds = static_cast<double>(config.shards) *
                        static_cast<double>(config.flows_per_shard) *
                        ToSeconds(config.flow_duration);
  return result;
}

}  // namespace astraea
