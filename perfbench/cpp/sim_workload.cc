// sim_mlp and sim_cubic: ten flows on Fig. 10's 600 Mbps / 20 ms / 1-BDP
// DropTail dumbbell, either Astraea running the trained checkpoint through
// MlpPolicy or CUBIC. The workload seed only draws the flow starts.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness/metrics.h"
#include "bench/harness/scenario.h"
#include "decorators.h"
#include "report.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using astraea::Seconds;
using astraea::TimeNs;

constexpr int kFlows = 10;
constexpr astraea::RateBps kBandwidth = astraea::Mbps(600);
constexpr TimeNs kBaseRtt = astraea::Milliseconds(20);
constexpr double kBufferBdp = 1.0;
constexpr TimeNs kStartSpread = Seconds(1.0);
// Spans one traced simulated second produces, with headroom (up to ~185k
// measured on sim_mlp).
constexpr size_t kSpansPerSimSecond = 250'000;

TimeNs Horizon(const Options& options) { return options.tiny ? Seconds(4.0) : Seconds(30.0); }

// Instrumentation of one traced rep.
struct Taps {
  SpanRecorder recorder;
  QueueCounts queue;
  uint64_t decisions = 0;
};

struct Rep {
  double setup_s = 0.0;
  double model_load_s = 0.0;
  double run_s = 0.0;
  uint64_t events = 0;
  uint64_t fingerprint = 0;
  double jain = 0.0;
  double utilization = 0.0;
  double rtt_p95_ms = 0.0;
  std::string problem;  // first failed sanity check; empty when the rep is sane
};

// Builds the scenario (plus the checkpoint load for Astraea), runs it and
// reads its outputs. With `taps`, the decorators are installed and every call
// they wrap is recorded as a span under one Network::Run root.
Rep RunRep(const Options& options, bool mlp, uint64_t rep_seed, Taps* taps) {
  const TimeNs until = Horizon(options);
  Rep rep;
  const auto setup_start = std::chrono::steady_clock::now();
  std::shared_ptr<const astraea::Policy> policy;
  if (mlp) {
    // Never LoadDefaultPolicy: it would fall back silently to the distilled
    // policy and measure another program. A load failure throws.
    policy = astraea::MlpPolicy::LoadFromFile(options.model_path);
    rep.model_load_s = SecondsSince(setup_start);
  }
  astraea::DumbbellConfig config;
  config.bandwidth = kBandwidth;
  config.base_rtt = kBaseRtt;
  config.buffer_bdp = kBufferBdp;
  // DumbbellScenario's sizing rule; checked against BufferBytes() below.
  const uint64_t buffer_bytes = std::max<uint64_t>(
      static_cast<uint64_t>(kBufferBdp *
                            static_cast<double>(astraea::BdpBytes(kBandwidth, kBaseRtt))),
      2 * 1500);
  if (taps != nullptr) {
    config.queue_factory = [taps, buffer_bytes](astraea::Rng /*rng*/) {
      return std::make_unique<TimedQueue>(std::make_unique<astraea::DropTailQueue>(buffer_bytes),
                                          &taps->recorder, &taps->queue);
    };
  }
  astraea::DumbbellScenario scenario(config);
  astraea::SchemeOptions& scheme_options = scenario.scheme_options();
  if (policy != nullptr) {
    scheme_options.astraea_policy =
        taps != nullptr ? std::make_shared<TimedPolicy>(policy, &taps->recorder) : policy;
  }
  const std::string scheme = mlp ? "astraea" : "cubic";
  // One start in each tenth of the spread, uniform within it. Independent
  // uniform starts let a few seeds cost 15% more events and 3x the drops.
  astraea::Rng starts(rep_seed);
  const TimeNs slot = kStartSpread / kFlows;
  for (int i = 0; i < kFlows; ++i) {
    const TimeNs start = slot * i + starts.UniformInt(0, slot - 1);
    if (taps == nullptr) {
      scenario.AddFlow(scheme, start);
      continue;
    }
    astraea::CcFactory inner = astraea::MakeSchemeFactory(scheme, &scheme_options);
    scenario.AddFlowWithFactory(
        scheme,
        [inner, taps] {
          return std::make_unique<TimedController>(inner(), &taps->recorder, &taps->decisions);
        },
        start);
  }
  rep.setup_s = SecondsSince(setup_start);

  const auto run_start = std::chrono::steady_clock::now();
  {
    ScopedSpan root(taps != nullptr ? &taps->recorder : nullptr, Layer::kSimRun);
    scenario.Run(until);
  }
  rep.run_s = SecondsSince(run_start);

  const astraea::Network& net = scenario.network();
  rep.events = net.events().executed();
  uint64_t fp = 0;
  for (int flow = 0; flow < static_cast<int>(net.flow_count()); ++flow) {
    const astraea::FlowStats& stats = net.flow_stats(flow);
    fp = astraea::MixFingerprint(fp, stats.bytes_sent);
    fp = astraea::MixFingerprint(fp, stats.bytes_acked);
    fp = astraea::MixFingerprint(fp, stats.bytes_lost);
  }
  rep.fingerprint = astraea::MixFingerprint(fp, rep.events);
  const TimeNs begin = until / 3;
  rep.jain = astraea::AverageJain(net, begin, until, Seconds(1.0));
  rep.utilization = astraea::LinkUtilization(net, 0, begin, until);
  rep.rtt_p95_ms = astraea::P95RttMs(net, begin, until);
  if (scenario.BufferBytes() != buffer_bytes) {
    rep.problem = "queue decorator capacity differs from the scenario's buffer";
  } else if (!(rep.jain > 0.0 && rep.jain <= 1.0)) {
    rep.problem = "jain out of (0, 1]: " + std::to_string(rep.jain);
  } else if (!(rep.utilization > 0.0 && rep.utilization <= 1.05)) {
    rep.problem = "utilization out of (0, 1.05]: " + std::to_string(rep.utilization);
  } else if (!(rep.rtt_p95_ms >= astraea::ToMillis(kBaseRtt))) {
    rep.problem = "p95 RTT below the base RTT: " + std::to_string(rep.rtt_p95_ms);
  }
  return rep;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double FlowSeconds(const Options& options) {
  return kFlows * astraea::ToSeconds(Horizon(options));
}

// End-to-end run: reps on the workload seed's one input until the window
// closes. Every rep does the same work, so the result covers the same input
// however many reps the host fits, and every rep must reproduce rep 0.
void MeasureEndToEnd(const Options& options, bool mlp, Result* result) {
  const uint64_t rep_seed = astraea::Rng::DeriveSeed(options.seed, 0);
  std::vector<Rep> reps;
  const auto start = std::chrono::steady_clock::now();
  double rep_s = 0.0;
  while (MoreReps(start, reps.size(), rep_s, options.seconds)) {
    const auto rep_start = std::chrono::steady_clock::now();
    reps.push_back(RunRep(options, mlp, rep_seed, nullptr));
    rep_s = SecondsSince(rep_start);
  }
  const Rep& first = reps.front();

  std::vector<double> setup;
  std::vector<double> per_flow_s;
  double run_s = 0.0;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const std::string tag = "rep " + std::to_string(i);
    setup.push_back(rep.setup_s);
    per_flow_s.push_back(rep.run_s / FlowSeconds(options));
    run_s += rep.run_s;
    result->Check(tag + " outputs sane", rep.problem.empty(), rep.problem);
    if (i > 0) {
      result->Check(tag + " reproduces rep 0's fingerprint and metrics",
                    rep.fingerprint == first.fingerprint && rep.jain == first.jain &&
                        rep.utilization == first.utilization &&
                        rep.rtt_p95_ms == first.rtt_p95_ms,
                    "fingerprint " + Hex(first.fingerprint) + " vs " + Hex(rep.fingerprint));
    }
  }

  // Whole-run wall time over whole-run work, not the median rep: when the
  // host changes speed partway through a run, the median jumps to whichever
  // phase holds more reps, while the total weighs both.
  const double wall_s_per_flow_s =
      run_s / (static_cast<double>(reps.size()) * FlowSeconds(options));
  result->Samples("setup_s", setup);
  result->Samples("wall_s_per_flow_s", per_flow_s);
  result->Set("setup_s", Median(setup), "s");
  result->Set("wall_us_per_op", wall_s_per_flow_s * 1e6, "us");
  result->Set("wall_s_per_flow_s", wall_s_per_flow_s, "s/flow-s");
  result->Set("jain", first.jain, "ratio");
  result->Set("utilization", first.utilization, "ratio");
  result->Set("rtt_p95_ms", first.rtt_p95_ms, "ms");
  result->Set("reps", static_cast<double>(reps.size()), "count");
}

// Traced run: pairs of (untraced, traced) reps on the workload seed itself,
// so every pair has identical inputs and must have identical outputs.
void MeasurePerLayer(const Options& options, bool mlp, Result* result) {
  const uint64_t rep_seed = astraea::Rng::DeriveSeed(options.seed, 0);
  std::vector<double> overhead_pct;
  std::vector<double> model_load, infer_s, infer_p50, infer_p99, mtp_self, ack_self, queue_self,
      sim_self, sim_ns_per_event;
  std::unique_ptr<Taps> taps;
  SpanSummary counts;  // first traced rep: counts are identical in every pair
  uint64_t events = 0;
  QueueCounts queue;
  const auto start = std::chrono::steady_clock::now();
  size_t pair = 0;
  do {
    const Rep plain = RunRep(options, mlp, rep_seed, nullptr);
    taps = std::make_unique<Taps>();
    taps->recorder.Reserve(kSpansPerSimSecond *
                           static_cast<size_t>(astraea::ToSeconds(Horizon(options))));
    const Rep traced = RunRep(options, mlp, rep_seed, taps.get());
    const SpanSummary s = Summarize(taps->recorder.spans());
    const std::string tag = "pair " + std::to_string(pair) + ": ";
    result->Check(tag + "traced fingerprint equals untraced",
                  traced.fingerprint == plain.fingerprint && traced.problem.empty(),
                  Hex(plain.fingerprint) + " vs " + Hex(traced.fingerprint) + " " +
                      traced.problem);
    result->Check(tag + "self times add up to the root span",
                  s.well_formed && s.SelfSum() == s.root_ns && s[Layer::kSimRun].calls == 1,
                  std::to_string(s.SelfSum()) + " ns vs root " + std::to_string(s.root_ns));
    const uint64_t infer_calls = s[Layer::kNnInfer].calls;
    result->Check(tag + "nn.infer_calls equals the decision count",
                  infer_calls == taps->decisions && (mlp ? infer_calls > 0 : infer_calls == 0),
                  std::to_string(infer_calls) + " vs " + std::to_string(taps->decisions));
    if (pair == 0) {
      counts = s;
      events = traced.events;
      queue = taps->queue;
    }
    bool same_counts = traced.events == events && taps->queue.enqueues == queue.enqueues &&
                       taps->queue.drops == queue.drops;
    for (size_t l = 0; l < kLayerCount; ++l) {
      same_counts = same_counts && s.layers[l].calls == counts.layers[l].calls;
    }
    result->Check(tag + "call and event counts equal the first pair's", same_counts);
    std::vector<double> infer_us;
    for (const uint64_t ns : Durations(taps->recorder.spans(), Layer::kNnInfer)) {
      infer_us.push_back(static_cast<double>(ns) * 1e-3);
    }
    overhead_pct.push_back(100.0 * (traced.run_s - plain.run_s) / plain.run_s);
    model_load.push_back(traced.model_load_s);
    infer_s.push_back(static_cast<double>(s[Layer::kNnInfer].total_ns) * 1e-9);
    infer_p50.push_back(Median(infer_us));
    infer_p99.push_back(astraea::Percentile(infer_us, 99.0));
    mtp_self.push_back(static_cast<double>(s[Layer::kCoreMtp].self_ns) * 1e-9);
    ack_self.push_back(static_cast<double>(s[Layer::kCcAck].self_ns) * 1e-9);
    queue_self.push_back(static_cast<double>(s[Layer::kQueue].self_ns) * 1e-9);
    sim_self.push_back(static_cast<double>(s[Layer::kSimRun].self_ns) * 1e-9);
    sim_ns_per_event.push_back(static_cast<double>(s[Layer::kSimRun].self_ns) /
                               static_cast<double>(traced.events));
    ++pair;
  } while (SecondsSince(start) < options.seconds);

  result->Set("nn.infer_calls", static_cast<double>(counts[Layer::kNnInfer].calls), "count");
  result->Set("nn.infer_s", Median(infer_s), "s");
  result->Set("nn.infer_us_p50", Median(infer_p50), "us");
  result->Set("nn.infer_us_p99", Median(infer_p99), "us");
  result->Set("core.mtp_calls", static_cast<double>(counts[Layer::kCoreMtp].calls), "count");
  result->Set("core.mtp_self_s", Median(mtp_self), "s");
  result->Set("cc.ack_calls", static_cast<double>(counts[Layer::kCcAck].calls), "count");
  result->Set("cc.ack_self_s", Median(ack_self), "s");
  result->Set("cc.loss_calls", static_cast<double>(counts[Layer::kCcLoss].calls), "count");
  result->Set("sim.queue.enqueues", static_cast<double>(queue.enqueues), "count");
  result->Set("sim.queue.drops", static_cast<double>(queue.drops), "count");
  result->Set("sim.queue.self_s", Median(queue_self), "s");
  result->Set("sim.events", static_cast<double>(events), "count");
  result->Set("sim.self_s", Median(sim_self), "s");
  result->Set("sim.self_ns_per_event", Median(sim_ns_per_event), "ns");
  result->Set("setup.model_load_s", Median(model_load), "s");
  result->Set("trace.overhead_pct", Median(overhead_pct), "%");
  result->Set("reps", static_cast<double>(pair), "count");
  result->Check("spans written",
                WriteSpans(options.out_dir + "/" + options.workload + ".spans",
                           taps->recorder.spans()));
}

}  // namespace

Result RunSim(const Options& options, bool mlp) {
  Result result;
  RecordProvenance(options, mlp, &result);
  if (options.trace) {
    InitPerLayer(&result);
    MeasurePerLayer(options, mlp, &result);
  } else {
    MeasureEndToEnd(options, mlp, &result);
  }
  result.attempted = result.checks();
  result.failed = result.checks_failed();
  return result;
}

}  // namespace perfbench
