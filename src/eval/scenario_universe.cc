#include "src/eval/scenario_universe.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/logging.h"
#include "src/util/stats.h"

namespace astraea {

namespace {

// Pareto sample via inverse transform: min * (1-u)^(-1/alpha). Heavy-tailed
// ON durations are what makes the churn adversarial — a few elephants among
// many mice.
TimeNs ParetoDuration(Rng* rng, TimeNs min_on, double alpha) {
  const double u = rng->Uniform();
  const double scale = std::pow(1.0 - u, -1.0 / alpha);
  // Cap at 1000x the minimum so one astronomically heavy draw cannot swallow
  // the whole horizon (the tail is still three decades wide).
  return static_cast<TimeNs>(static_cast<double>(min_on) * std::min(scale, 1000.0));
}

std::unique_ptr<DumbbellScenario> MakeScenario(DumbbellConfig config,
                                               const SchemeOptions* base_options) {
  auto scenario = std::make_unique<DumbbellScenario>(std::move(config));
  if (base_options != nullptr) {
    scenario->scheme_options() = *base_options;
  }
  return scenario;
}

}  // namespace

uint64_t FingerprintScenario(const Network& net, uint64_t salt) {
  uint64_t fp = salt;
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const FlowStats& stats = net.flow_stats(flow);
    fp = MixFingerprint(fp, stats.bytes_sent);
    fp = MixFingerprint(fp, stats.bytes_acked);
    fp = MixFingerprint(fp, stats.bytes_lost);
    fp = MixFingerprint(fp, static_cast<uint64_t>(stats.completed_at + 1));
  }
  fp = MixFingerprint(fp, net.events().executed());
  return fp;
}

UniverseMetrics ScoreUniverseWindow(const Network& net, TimeNs begin, TimeNs end,
                                    FlowRange flows, uint64_t fp_salt) {
  UniverseMetrics m;
  m.utilization = LinkUtilization(net, 0, begin, end);
  const std::vector<double> throughputs = FlowMeanThroughputs(net, begin, end, flows);
  m.jain = JainIndex(throughputs);
  m.p95_delay_ms = P95RttMs(net, begin, end, flows);
  m.loss_ratio = AggregateLossRatio(net, flows);
  m.goodput_mbps = std::accumulate(throughputs.begin(), throughputs.end(), 0.0);
  m.fingerprint = FingerprintScenario(net, fp_salt);
  return m;
}

// ------------------------------------------------------------- datacenter

std::unique_ptr<DumbbellScenario> BuildIncast(const IncastConfig& config,
                                              const SchemeOptions* base_options) {
  ASTRAEA_CHECK(config.fan_in > 0 && config.waves > 0);
  DumbbellConfig dc;
  dc.bandwidth = config.bandwidth;
  dc.base_rtt = config.base_rtt;
  dc.seed = config.seed;
  // Explicit shallow buffer (not a BDP multiple, so DropTail needs its own
  // factory too) behind an optional DCTCP-style marking stage.
  const uint64_t buffer = config.buffer_bytes;
  if (config.ecn) {
    dc.queue_factory = MakeQueueFactory(Qdisc::kEcn, buffer);
  } else {
    dc.queue_factory = [buffer](Rng /*rng*/) -> std::unique_ptr<QueueDiscipline> {
      return std::make_unique<DropTailQueue>(buffer);
    };
  }
  auto scenario = MakeScenario(std::move(dc), base_options);

  // One budgeted flow per (sender, wave); all of a wave's requests land
  // within start_jitter of the wave boundary — the synchronized burst that
  // makes incast incast.
  Rng jitter(Rng::DeriveSeed(config.seed, 0x1CA57));
  SenderConfig sender;
  sender.max_transfer_bytes = config.request_bytes;
  for (size_t wave = 0; wave < config.waves; ++wave) {
    const TimeNs wave_start = static_cast<TimeNs>(wave) * config.wave_interval;
    for (size_t i = 0; i < config.fan_in; ++i) {
      const TimeNs start =
          wave_start +
          (config.start_jitter > 0 ? jitter.UniformInt(0, config.start_jitter) : 0);
      scenario->AddFlowWithConfig(config.scheme, sender, start);
    }
  }
  return scenario;
}

TimeNs IncastHorizon(const IncastConfig& config) {
  // Last wave plus a generous drain window: incast collapse resolves through
  // 200ms-floor RTOs, so give stragglers several of those.
  return static_cast<TimeNs>(config.waves - 1) * config.wave_interval + Seconds(1.0);
}

IncastResult RunIncast(const IncastConfig& config) {
  auto scenario = BuildIncast(config);
  const TimeNs horizon = IncastHorizon(config);
  scenario->Run(horizon);

  IncastResult result;
  result.requests = config.fan_in * config.waves;
  const Network& net = scenario->network();
  std::vector<double> fcts;
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const FlowStats& stats = net.flow_stats(flow);
    if (stats.completed_at >= 0) {
      ++result.completed;
      fcts.push_back(ToMillis(stats.completed_at - net.flow_spec(flow).start));
    }
  }
  if (!fcts.empty()) {
    result.p95_fct_ms = Percentile(fcts, 95.0);
    result.max_fct_ms = *std::max_element(fcts.begin(), fcts.end());
  }
  if (const auto* ecn = dynamic_cast<const EcnMarkingQueue*>(&net.link(0).queue())) {
    result.ecn_marked = ecn->marked_packets();
  }
  result.metrics = ScoreUniverseWindow(net, 0, horizon, {}, config.seed);
  return result;
}

// ------------------------------------------------------------ trace-driven

std::unique_ptr<DumbbellScenario> BuildTraceDriven(const TraceDrivenConfig& config,
                                                   const SchemeOptions* base_options) {
  std::shared_ptr<RateProvider> trace = config.trace;
  if (trace == nullptr) {
    ASTRAEA_CHECK(!config.trace_path.empty());
    trace = std::make_shared<RateTrace>(ToRateTrace(LoadLinkRateTraceFile(config.trace_path),
                                                    config.mtu_bytes, config.granularity));
  }
  DumbbellConfig dc;
  dc.bandwidth = trace->RateAt(0);  // sizes the buffer; the trace drives service
  dc.base_rtt = config.base_rtt;
  dc.buffer_bdp = config.buffer_bdp;
  dc.random_loss = config.random_loss;
  dc.trace = trace;
  dc.seed = config.seed;
  auto scenario = MakeScenario(std::move(dc), base_options);
  for (size_t i = 0; i < config.flows; ++i) {
    // Fixed stagger keeps multi-flow runs deterministic without an Rng draw.
    scenario->AddFlow(config.scheme, static_cast<TimeNs>(i) * Milliseconds(100),
                      config.duration);
  }
  return scenario;
}

TraceDrivenResult RunTraceDriven(const TraceDrivenConfig& config) {
  auto scenario = BuildTraceDriven(config);
  const TimeNs horizon = config.duration + Milliseconds(50);
  scenario->Run(horizon);
  TraceDrivenResult result;
  result.metrics = ScoreUniverseWindow(scenario->network(), 0, horizon, {}, config.seed);
  return result;
}

// ------------------------------------------------------------- adversarial

std::unique_ptr<DumbbellScenario> BuildAdversarial(const AdversarialConfig& config,
                                                   const SchemeOptions* base_options) {
  DumbbellConfig dc;
  dc.bandwidth = config.bandwidth;
  dc.base_rtt = config.base_rtt;
  dc.buffer_bdp = config.buffer_bdp;
  dc.seed = config.seed;
  auto scenario = MakeScenario(std::move(dc), base_options);

  // Foreground flows first (ids [0, long_flows)): the scored victims.
  for (size_t i = 0; i < config.long_flows; ++i) {
    scenario->AddFlow(config.scheme, 0, config.duration);
  }

  // Heavy-tailed churn, precomputed from the seed: each slot alternates
  // Pareto ON periods (one flow each) and exponential OFF gaps.
  Rng churn(Rng::DeriveSeed(config.seed, 0xC4u));
  for (size_t slot = 0; slot < config.churn_slots; ++slot) {
    TimeNs t = static_cast<TimeNs>(
        churn.UniformInt(0, std::max<TimeNs>(config.mean_off, Milliseconds(1))));
    while (t < config.duration) {
      const TimeNs on =
          std::min(ParetoDuration(&churn, config.pareto_min_on, config.pareto_alpha),
                   config.duration - t);
      scenario->AddFlow(config.churn_scheme, t, on);
      const TimeNs off = static_cast<TimeNs>(churn.Exponential(ToSeconds(config.mean_off)) *
                                             1e9);
      t += on + std::max<TimeNs>(off, Milliseconds(1));
    }
  }

  // Periodic unresponsive blasts at a fixed fraction of the bottleneck rate.
  if (config.blast_fraction > 0.0) {
    scenario->scheme_options().blast_rate_bps = config.blast_fraction * config.bandwidth;
    for (TimeNs t = config.blast_period / 2; t < config.duration; t += config.blast_period) {
      scenario->AddFlow("blast", t, std::min(config.blast_on, config.duration - t));
    }
  }
  return scenario;
}

AdversarialResult RunAdversarial(const AdversarialConfig& config) {
  auto scenario = BuildAdversarial(config);
  const TimeNs horizon = config.duration + Milliseconds(50);
  scenario->Run(horizon);

  AdversarialResult result;
  const Network& net = scenario->network();
  uint64_t blast_acked = 0;
  uint64_t total_acked = 0;
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const FlowStats& stats = net.flow_stats(flow);
    total_acked += stats.bytes_acked;
    const std::string& scheme = net.flow_spec(flow).scheme;
    if (scheme == "blast") {
      blast_acked += stats.bytes_acked;
    } else if (flow >= static_cast<int>(config.long_flows)) {
      ++result.churn_flows;
    }
  }
  result.blast_share =
      total_acked > 0 ? static_cast<double>(blast_acked) / static_cast<double>(total_acked)
                      : 0.0;
  // Score the long-lived foreground flows over the steady window (skip the
  // first second of slow start).
  const TimeNs begin = std::min(Seconds(1.0), config.duration / 10);
  result.metrics = ScoreUniverseWindow(
      net, begin, horizon, {0, static_cast<int>(config.long_flows)}, config.seed);
  return result;
}

// ----------------------------------------------------------- shard protocol

const char* UniverseFamilyName(UniverseFamily family) {
  switch (family) {
    case UniverseFamily::kIncast:
      return "incast";
    case UniverseFamily::kTraceDriven:
      return "trace_driven";
    case UniverseFamily::kAdversarial:
      return "adversarial";
  }
  return "unknown";
}

ShardResult RunUniverseShard(const ShardedUniverseConfig& config, size_t shard_index) {
  const uint64_t shard_seed = Rng::DeriveSeed(config.seed_stream, shard_index);
  std::unique_ptr<DumbbellScenario> scenario;
  TimeNs horizon = 0;
  switch (config.family) {
    case UniverseFamily::kIncast: {
      IncastConfig c = config.incast;
      c.seed = shard_seed;
      scenario = BuildIncast(c);
      horizon = IncastHorizon(c);
      break;
    }
    case UniverseFamily::kTraceDriven: {
      TraceDrivenConfig c = config.trace_driven;
      c.seed = shard_seed;
      scenario = BuildTraceDriven(c);
      horizon = c.duration + Milliseconds(50);
      break;
    }
    case UniverseFamily::kAdversarial: {
      AdversarialConfig c = config.adversarial;
      c.seed = shard_seed;
      scenario = BuildAdversarial(c);
      horizon = c.duration + Milliseconds(50);
      break;
    }
  }
  scenario->Run(horizon);

  Network& net = scenario->network();
  ShardResult result;
  result.events_executed = net.events().executed();
  result.packet_slots = net.packet_pool().capacity();
  result.packets_live = net.packet_pool().live();
  result.packets_recycled = net.packet_pool().recycled();
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const FlowStats& stats = net.flow_stats(flow);
    result.bytes_acked += stats.bytes_acked;
    result.bytes_lost += stats.bytes_lost;
  }
  result.fingerprint = FingerprintScenario(net, 0xA57AEA0400000000ULL + shard_index);
  return result;
}

ShardedRunResult RunShardedUniverse(const ShardedUniverseConfig& config) {
  return RunShards(config.shards, config.workers,
                   [&config](size_t shard) { return RunUniverseShard(config, shard); });
}

}  // namespace astraea
