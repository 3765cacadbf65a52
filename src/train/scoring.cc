#include "src/train/scoring.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/cc/cubic.h"
#include "src/cc/newreno.h"
#include "src/cc/udp_blast.h"
#include "src/core/astraea_controller.h"
#include "src/sim/network.h"
#include "src/sim/queue_disc.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace astraea {

namespace {

constexpr uint64_t kEcnMarkThresholdBytes = 30'000;
constexpr TimeNs kJainSlot = Seconds(1.0);
// Fig. 12's convergence band and hold time.
constexpr double kConvergenceTolerance = 0.10;
constexpr TimeNs kConvergenceHold = Seconds(1.0);
constexpr double kNeverConvergedSeconds = 99.0;

QueueFactory MakeQueueFactory(Qdisc qdisc, uint64_t capacity) {
  switch (qdisc) {
    case Qdisc::kDropTail:
      return {};
    case Qdisc::kRed:
      return [capacity](Rng rng) -> std::unique_ptr<QueueDiscipline> {
        RedConfig red;
        red.capacity_bytes = capacity;
        return std::make_unique<RedQueue>(red, rng);
      };
    case Qdisc::kEcn:
      return [capacity](Rng) -> std::unique_ptr<QueueDiscipline> {
        EcnConfig ecn;
        ecn.mark_threshold_bytes = kEcnMarkThresholdBytes;
        return std::make_unique<EcnMarkingQueue>(std::make_unique<DropTailQueue>(capacity), ecn);
      };
  }
  return {};
}

std::vector<ScoringScenario> ScorecardSuite() {
  const RateBps bw = Mbps(100);
  const TimeNs rtt = Milliseconds(30);
  const std::vector<FlowSchedule> one = StaggeredFlows(1, 0);
  Rng trace_rng(5);
  const auto lte = std::make_shared<RateTrace>(
      MakeLteLikeTrace(Seconds(30.0), Milliseconds(20), Mbps(1), Mbps(60), &trace_rng));
  return {
      // Single flow: utilization and latency.
      {.name = "single", .bandwidth = bw, .base_rtt = rtt, .flows = one, .until = Seconds(20.0),
       .score_from = Seconds(5.0)},
      // Three flows 10 s apart: fairness and convergence of the last arrival.
      {.name = "3-flow", .bandwidth = bw, .base_rtt = rtt,
       .flows = StaggeredFlows(3, Seconds(10.0)), .until = Seconds(45.0),
       .score_from = Seconds(20.0)},
      // RTT heterogeneity: 30 ms vs 150 ms flows on a half-BDP buffer.
      {.name = "rtt-het", .bandwidth = bw, .base_rtt = rtt, .buffer_bdp = 0.5,
       .flows = {{0, -1, 0}, {0, -1, Milliseconds(120)}}, .until = Seconds(40.0),
       .score_from = Seconds(20.0)},
      // Coexistence with CUBIC.
      {.name = "vs-cubic", .bandwidth = bw, .base_rtt = rtt, .flows = one,
       .cross = CrossTraffic::kCubic, .until = Seconds(40.0), .score_from = Seconds(10.0)},
      // Cellular trace tracking on a deep buffer.
      {.name = "cellular", .base_rtt = Milliseconds(40), .buffer_bdp = 20.0, .trace = lte,
       .flows = one, .until = Seconds(30.0), .score_from = Seconds(2.0)},
      // Satellite: 42 Mbps, 800 ms, 0.74% random loss.
      {.name = "satellite", .bandwidth = Mbps(42), .base_rtt = Milliseconds(800),
       .random_loss = 0.0074, .flows = one, .until = Seconds(60.0), .score_from = Seconds(15.0)},
  };
}

// One scorecard check: a field of one ScorecardSuite() row against a
// threshold.
struct ScorecardCheck {
  const char* name;
  const char* scenario;  // ScorecardSuite() row name
  double ScenarioScore::*metric;
  bool per_base_rtt;     // divide the field by the row's base RTT (ms)
  double threshold;
  bool higher_is_better;
  const char* format;    // printf format of the value
};

const std::vector<ScorecardCheck>& ScorecardChecks() {
  using S = ScenarioScore;
  static const std::vector<ScorecardCheck> checks = {
      {"single-flow utilization", "single", &S::utilization, false, 0.90, true, "%.3f"},
      {"single-flow RTT inflation (x base)", "single", &S::mean_rtt_ms, true, 1.5, false, "%.3f"},
      {"3-flow avg Jain", "3-flow", &S::jain, false, 0.95, true, "%.3f"},
      {"3-flow convergence time (s)", "3-flow", &S::convergence_s, false, 5.0, false, "%.2f"},
      {"3-flow stability (Mbps)", "3-flow", &S::stability_mbps, false, 3.0, false, "%.2f"},
      {"RTT-heterogeneous Jain", "rtt-het", &S::jain_of_means, false, 0.85, true, "%.3f"},
      {"vs-CUBIC throughput ratio", "vs-cubic", &S::cross_ratio, false, 0.1, true, "%.2f"},
      {"cellular utilization", "cellular", &S::utilization, false, 0.6, true, "%.3f"},
      // Tail-delay spikes during deep capacity plunges are partly physical
      // on a 20xBDP buffer; what matters is staying far below the
      // buffer-filling schemes (25-30x on this workload).
      {"cellular p95 RTT (x base)", "cellular", &S::p95_delay_ms, true, 8.0, false, "%.2f"},
      {"satellite utilization", "satellite", &S::utilization, false, 0.6, true, "%.3f"},
  };
  return checks;
}

}  // namespace

std::vector<FlowSchedule> StaggeredFlows(int n, TimeNs gap) {
  std::vector<FlowSchedule> flows;
  for (int i = 0; i < n; ++i) {
    flows.push_back({gap * i, -1, 0});
  }
  return flows;
}

ScenarioScore ScoreScenario(const ScoringScenario& row, std::shared_ptr<const Policy> policy,
                            const AstraeaHyperparameters& hp) {
  ASTRAEA_CHECK(!row.flows.empty());
  ASTRAEA_CHECK(row.score_from < row.until);
  Network network(row.seed);

  // A trace's long-run mean replaces the nominal bandwidth: the 96 Mbps
  // default against a ~9 Mbps cellular capture would oversize the buffer
  // into a bufferbloat trap.
  const RateBps mean_rate =
      row.trace ? row.trace->CapacityBits(0, row.until) / ToSeconds(row.until) : row.bandwidth;
  LinkConfig link;
  link.name = "bottleneck";
  link.rate = row.bandwidth;
  link.trace = row.trace;
  link.propagation_delay = row.base_rtt / 2;
  link.buffer_bytes = std::max<uint64_t>(
      static_cast<uint64_t>(row.buffer_bdp *
                            static_cast<double>(BdpBytes(mean_rate, row.base_rtt))),
      3000);
  link.random_loss = row.random_loss;
  link.queue_factory = MakeQueueFactory(row.qdisc, link.buffer_bytes);
  network.AddLink(link);

  auto add_flow = [&network](const char* scheme, const FlowSchedule& f, CcFactory make_cc) {
    FlowSpec spec;
    spec.scheme = scheme;
    spec.start = f.start;
    spec.duration = f.duration;
    spec.extra_one_way_delay = f.extra_one_way_delay;
    spec.link_path = {0};
    spec.make_cc = std::move(make_cc);
    return network.AddFlow(spec);
  };
  // Astraea flows take ids [0, n); cross traffic rides behind them.
  for (const FlowSchedule& f : row.flows) {
    add_flow("astraea", f,
             [policy, hp] { return std::make_unique<AstraeaController>(policy, hp); });
  }
  int first_cross = -1;
  if (row.cross == CrossTraffic::kCubic) {
    first_cross = add_flow("cubic", {0, -1, 0}, [] { return std::make_unique<Cubic>(); });
  } else if (row.cross == CrossTraffic::kNewRenoAndBlast) {
    first_cross = add_flow("newreno", {0, -1, 0}, [] { return std::make_unique<NewReno>(); });
    const double blast_bps = 0.4 * row.bandwidth;
    add_flow("blast", {row.until / 2 + row.until / 8, row.until / 8, 0},
             [blast_bps] { return std::make_unique<UdpBlast>(blast_bps); });
  }
  network.Run(row.until);

  const TimeNs begin = row.score_from;
  const TimeNs end = row.until;
  const size_t n = row.flows.size();
  ScenarioScore score;
  std::vector<double> means;
  std::vector<double> rtts;
  double total_mbps = 0.0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_lost = 0;
  for (size_t i = 0; i < n; ++i) {
    const FlowStats& stats = network.flow_stats(static_cast<int>(i));
    means.push_back(stats.throughput_mbps.MeanOver(begin, end));
    total_mbps += means.back();
    for (const auto& [t, rtt_ms] : stats.rtt_ms.points()) {
      if (t >= begin && t < end) {
        rtts.push_back(rtt_ms);
      }
    }
    bytes_sent += stats.bytes_sent;
    bytes_lost += stats.bytes_lost;
  }
  score.utilization =
      total_mbps / (row.trace ? row.trace->CapacityBits(begin, end) / (ToSeconds(end - begin) * 1e6)
                              : row.bandwidth / 1e6);

  std::vector<double> rates;
  double jain_sum = 0.0;
  int slots = 0;
  for (TimeNs t = begin; t + kJainSlot <= end; t += kJainSlot) {
    rates.clear();
    for (size_t i = 0; i < n; ++i) {
      rates.push_back(network.flow_stats(static_cast<int>(i)).throughput_mbps.MeanOver(
          t, t + kJainSlot));
    }
    jain_sum += JainIndex(rates);
    ++slots;
  }
  score.jain = slots > 0 ? jain_sum / slots : 1.0;
  score.jain_of_means = JainIndex(means);
  if (!rtts.empty()) {
    score.mean_rtt_ms = Mean(rtts);
    score.p95_delay_ms = Percentile(std::move(rtts), 95.0);
  }
  score.loss_rate =
      bytes_sent > 0 ? static_cast<double>(bytes_lost) / static_cast<double>(bytes_sent) : 0.0;

  size_t last = 0;
  for (size_t i = 1; i < n; ++i) {
    if (row.flows[i].start >= row.flows[last].start) {
      last = i;
    }
  }
  const TimeNs arrival = row.flows[last].start;
  const TimeSeries& thr = network.flow_stats(static_cast<int>(last)).throughput_mbps;
  const double fair_share_mbps = mean_rate / 1e6 / static_cast<double>(n);
  const TimeNs entered =
      thr.FirstStableEntry(arrival, fair_share_mbps, kConvergenceTolerance, kConvergenceHold);
  score.convergence_s = entered < 0 ? kNeverConvergedSeconds : ToSeconds(entered - arrival);
  score.stability_mbps = thr.StdDevOver(entered < 0 ? arrival : entered, end);

  if (first_cross >= 0) {
    const double cross_mbps = network.flow_stats(first_cross).throughput_mbps.MeanOver(begin, end);
    score.cross_ratio = means[0] / std::max(cross_mbps, 0.1);
  }
  return score;
}

std::vector<ScoringScenario> GoldenGateSuite() {
  // The golden-trace trio's links (tools/golden_trace.cc): a clean DropTail
  // dumbbell, a lossy deep-buffer path and a RED bottleneck.
  return {
      {.name = "clean"},
      {.name = "lossy", .bandwidth = Mbps(48), .base_rtt = Milliseconds(60), .buffer_bdp = 2.0,
       .random_loss = 0.01, .seed = 2},
      {.name = "red", .base_rtt = Milliseconds(30), .buffer_bdp = 2.0, .qdisc = Qdisc::kRed,
       .seed = 3},
  };
}

std::vector<ScoringScenario> UniverseGateSuite(const std::string& traces_dir) {
  return {
      // The datacenter regime at the gate's second scale: the candidate must
      // keep delay low without starving when the queue marks, not drops.
      {.name = "shallow-ecn", .base_rtt = Milliseconds(10), .buffer_bdp = 0.5,
       .qdisc = Qdisc::kEcn, .seed = 11},
      // The bundled cellular capture on a deep buffer, where latency
      // inflation is easiest to buy.
      {.name = "cellular", .buffer_bdp = 8.0,
       .trace = std::make_shared<RateTrace>(LoadMahimahiTrace(traces_dir + "/cellular.trace")),
       .flows = StaggeredFlows(2, Seconds(1.0)), .seed = 12},
      // A contested link: NewReno from t=0 and a blast through the middle of
      // the scoring window.
      {.name = "contested", .bandwidth = Mbps(48), .base_rtt = Milliseconds(30), .buffer_bdp = 2.0,
       .flows = StaggeredFlows(2, Seconds(1.0)), .cross = CrossTraffic::kNewRenoAndBlast,
       .seed = 13},
  };
}

ScoringScenario TrainerEvalScenario() {
  // Scored from one second after the last arrival.
  return {.name = "train-eval", .bandwidth = Mbps(100), .flows = StaggeredFlows(3, Seconds(4.0)),
          .until = Seconds(24.0), .score_from = Seconds(9.0), .seed = 42};
}

std::vector<CheckResult> RunScorecard(std::shared_ptr<const Policy> policy,
                                      const AstraeaHyperparameters& hp) {
  std::map<std::string, std::pair<ScoringScenario, ScenarioScore>> scored;
  for (const ScoringScenario& row : ScorecardSuite()) {
    scored.emplace(row.name, std::make_pair(row, ScoreScenario(row, policy, hp)));
  }
  std::vector<CheckResult> results;
  for (const ScorecardCheck& check : ScorecardChecks()) {
    const auto& [row, score] = scored.at(check.scenario);
    double value = score.*check.metric;
    if (check.per_base_rtt) {
      value /= static_cast<double>(row.base_rtt) / 1e6;
    }
    char buf[64];
    CheckResult result;
    result.name = check.name;
    std::snprintf(buf, sizeof(buf), check.format, value);
    result.value = buf;
    std::snprintf(buf, sizeof(buf), check.higher_is_better ? ">= %.2f" : "<= %.2f",
                  check.threshold);
    result.target = buf;
    result.pass = check.higher_is_better ? value >= check.threshold : value <= check.threshold;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace astraea
