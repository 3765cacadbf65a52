// Scenario universe summary bench (DESIGN.md §15): runs the three workload
// families from src/eval/scenario_universe.h —
//
//  1. Datacenter incast: fan-in sweep on a shallow-buffer 1 Gbps bottleneck,
//     DCTCP behind an ECN marking queue vs cubic on plain DropTail.
//  2. Trace-driven links: the bundled Mahimahi cellular/satellite captures
//     (traces/) replayed under several schemes.
//  3. Adversarial mixes: Pareto on/off churn plus periodic UDP blasts over
//     long-lived foreground flows, and the full cross-scheme competition
//     matrix scored with Jain/worst-flow/harm (Fair-Aurora style).
//
// Every family also runs the 1-vs-N-worker sharded fingerprint check, and
// the process-wide invariant-violation counter is reported (CI runs this
// under ASTRAEA_CHECK_INVARIANTS=1). Prints tables and writes the record to
// BENCH_scenario_universe.json (--out PATH overrides). Five checks fail the
// run: an invariant violation, a 1-vs-N fingerprint mismatch, a family not
// run, an empty competition matrix, or a harm index outside [0, 1]. --quick
// shrinks every axis for CI smoke; --traces DIR overrides the bundled trace
// dir.

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/eval/bench_record.h"
#include "src/eval/scenario_universe.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"
#include "src/sim/invariants.h"
#include "src/util/thread_pool.h"

#ifndef ASTRAEA_SOURCE_DIR
#define ASTRAEA_SOURCE_DIR "."
#endif

namespace astraea {
namespace {

struct FamilyRow {
  std::string family;
  std::string scenario;
  std::string scheme;
  UniverseMetrics metrics;
  // Extras (zero when not applicable).
  size_t requests = 0;
  size_t completed = 0;
  double p95_fct_ms = 0.0;
  uint64_t ecn_marked = 0;
  double blast_share = 0.0;
  size_t churn_flows = 0;
};

// One dumbbell competition run: one flow of `a` vs one flow of `b` (fig14's
// setup generalized to the full matrix). Returns mean throughputs in flow
// order.
std::pair<double, double> RunPair(const std::string& a, const std::string& b, TimeNs duration,
                                  uint64_t seed) {
  DumbbellConfig config;
  config.bandwidth = Mbps(100);
  config.base_rtt = Milliseconds(30);
  config.buffer_bdp = 1.0;
  config.seed = seed;
  DumbbellScenario scenario(config);
  scenario.AddFlow(a, 0, duration);
  scenario.AddFlow(b, 0, duration);
  scenario.Run(duration + Milliseconds(50));
  const TimeNs begin = duration / 5;  // skip startup transient
  const std::vector<double> thr = FlowMeanThroughputs(scenario.network(), begin, duration);
  return {thr[0], thr[1]};
}

int Main(int argc, char** argv) {
  BenchRecord record("scenario_universe", argc, argv, {}, {"--traces"});
  if (!record.args_ok()) {
    return 1;
  }
  const bool quick = record.quick();
  const std::string traces_dir =
      record.Value("--traces", std::string(ASTRAEA_SOURCE_DIR) + "/traces");
  PrintBenchHeader("ScenarioUniverse",
                   "Datacenter incast, trace-driven links, adversarial mixes");
  const uint64_t violations_before = invariants::ViolationCount();

  std::vector<FamilyRow> rows;

  // ---- Family 1: datacenter incast.
  const std::vector<size_t> fan_ins = quick ? std::vector<size_t>{8} : std::vector<size_t>{8, 32};
  for (const size_t fan_in : fan_ins) {
    for (const bool ecn : {true, false}) {
      IncastConfig config;
      config.fan_in = fan_in;
      config.waves = quick ? 1 : 2;
      config.scheme = ecn ? "dctcp" : "cubic";
      config.ecn = ecn;
      config.seed = 40 + fan_in;
      const IncastResult result = RunIncast(config);
      FamilyRow row;
      row.family = "datacenter";
      row.scenario = "incast_f" + std::to_string(fan_in) + (ecn ? "_ecn" : "_droptail");
      row.scheme = config.scheme;
      row.metrics = result.metrics;
      row.requests = result.requests;
      row.completed = result.completed;
      row.p95_fct_ms = result.p95_fct_ms;
      row.ecn_marked = result.ecn_marked;
      rows.push_back(row);
      std::printf("  incast fan-in %2zu %-8s (%s): %zu/%zu done, p95 FCT %7.1f ms,"
                  " loss %5.2f%%, %llu marks (%016llx)\n",
                  fan_in, config.scheme.c_str(), ecn ? "ecn" : "droptail", result.completed,
                  result.requests, result.p95_fct_ms, 100.0 * result.metrics.loss_ratio,
                  static_cast<unsigned long long>(result.ecn_marked),
                  static_cast<unsigned long long>(result.metrics.fingerprint));
      std::fflush(stdout);
    }
  }

  // ---- Family 2: trace-driven links.
  const std::vector<std::string> trace_schemes =
      quick ? std::vector<std::string>{"cubic"}
            : std::vector<std::string>{"cubic", "bbr", "astraea"};
  const std::vector<std::pair<std::string, std::string>> captures = {
      {"cellular", traces_dir + "/cellular.trace"},
      {"satellite", traces_dir + "/satellite.trace"},
  };
  for (const auto& [name, path] : captures) {
    for (const std::string& scheme : trace_schemes) {
      TraceDrivenConfig config;
      config.trace_path = path;
      config.scheme = scheme;
      config.duration = quick ? Seconds(3.0) : Seconds(8.0);
      if (name == "satellite") {
        config.base_rtt = Milliseconds(600);
        config.buffer_bdp = 1.0;
        config.random_loss = 0.0074;
      }
      config.seed = 7;
      const TraceDrivenResult result = RunTraceDriven(config);
      FamilyRow row;
      row.family = "trace_driven";
      row.scenario = name;
      row.scheme = scheme;
      row.metrics = result.metrics;
      rows.push_back(row);
      std::printf("  trace %-9s %-8s: util %5.1f%%, p95 delay %7.1f ms, loss %5.2f%%"
                  " (%016llx)\n",
                  name.c_str(), scheme.c_str(), 100.0 * result.metrics.utilization,
                  result.metrics.p95_delay_ms, 100.0 * result.metrics.loss_ratio,
                  static_cast<unsigned long long>(result.metrics.fingerprint));
      std::fflush(stdout);
    }
  }

  // ---- Family 3: adversarial churn + blasts.
  const std::vector<std::string> adv_schemes =
      quick ? std::vector<std::string>{"cubic"}
            : std::vector<std::string>{"cubic", "bbr", "astraea"};
  for (const std::string& scheme : adv_schemes) {
    AdversarialConfig config;
    config.scheme = scheme;
    config.duration = quick ? Seconds(4.0) : Seconds(10.0);
    config.seed = 11;
    const AdversarialResult result = RunAdversarial(config);
    FamilyRow row;
    row.family = "adversarial";
    row.scenario = "churn_blast";
    row.scheme = scheme;
    row.metrics = result.metrics;
    row.blast_share = result.blast_share;
    row.churn_flows = result.churn_flows;
    rows.push_back(row);
    std::printf("  adversarial %-8s: fg goodput %6.1f Mbps, jain %.3f, p95 delay %7.1f ms,"
                " blast share %4.1f%%, %zu churn flows (%016llx)\n",
                scheme.c_str(), result.metrics.goodput_mbps, result.metrics.jain,
                result.metrics.p95_delay_ms, 100.0 * result.blast_share, result.churn_flows,
                static_cast<unsigned long long>(result.metrics.fingerprint));
    std::fflush(stdout);
  }

  // ---- Cross-scheme competition matrix (Fair-Aurora scoring).
  const std::vector<std::string> matrix_schemes =
      quick ? std::vector<std::string>{"cubic", "bbr"}
            : std::vector<std::string>{"newreno", "cubic", "bbr", "vivace", "astraea"};
  const TimeNs pair_duration = quick ? Seconds(3.0) : Seconds(8.0);
  // Self-competition baselines: what a flow of X gets against another X is
  // its fair-share demand (the harm denominator).
  std::map<std::string, double> baseline;
  for (const std::string& s : matrix_schemes) {
    const auto [x, y] = RunPair(s, s, pair_duration, 900);
    baseline[s] = (x + y) / 2.0;
    record.Metric("competition.baselines." + s, baseline[s], "Mbps");
    std::printf("  matrix baseline %-8s: %6.1f Mbps self-competition share\n", s.c_str(),
                baseline[s]);
    std::fflush(stdout);
  }
  size_t pairs = 0;
  bool harm_ok = true;
  std::string harms;
  for (size_t i = 0; i < matrix_schemes.size(); ++i) {
    for (size_t j = i + 1; j < matrix_schemes.size(); ++j) {
      const std::string& a = matrix_schemes[i];
      const std::string& b = matrix_schemes[j];
      const auto [thr_a, thr_b] = RunPair(a, b, pair_duration, 900);
      const std::vector<double> thr = {thr_a, thr_b};
      const double jain = JainIndex(thr);
      const double worst = WorstFlowShare(thr);
      const double harm_a_on_b = HarmIndex(baseline[b], thr_b);
      const double harm_b_on_a = HarmIndex(baseline[a], thr_a);
      const std::string key = "competition.pairs." + a + "_vs_" + b + ".";
      record.Metric(key + "thr_a_mbps", thr_a, "Mbps");
      record.Metric(key + "thr_b_mbps", thr_b, "Mbps");
      record.Metric(key + "jain", jain, "ratio");
      record.Metric(key + "worst_flow_share", worst, "ratio");
      record.Metric(key + "harm_a_on_b", harm_a_on_b, "ratio");
      record.Metric(key + "harm_b_on_a", harm_b_on_a, "ratio");
      ++pairs;
      for (const double harm : {harm_a_on_b, harm_b_on_a}) {
        harm_ok &= harm >= 0.0 && harm <= 1.0;
      }
      harms += (harms.empty() ? "" : ", ") + a + "_vs_" + b + " " +
               ConsoleTable::Num(harm_a_on_b) + "/" + ConsoleTable::Num(harm_b_on_a);
      std::printf("  matrix %-8s vs %-8s: %6.1f / %6.1f Mbps, jain %.3f, worst %.2f,"
                  " harm %.2f/%.2f\n",
                  a.c_str(), b.c_str(), thr_a, thr_b, jain, worst, harm_a_on_b, harm_b_on_a);
      std::fflush(stdout);
    }
  }
  record.Check("competition.pairs_nonempty", pairs > 0, "pairs: " + std::to_string(pairs));
  record.Check("competition.harm_in_unit_interval", harm_ok, harms);

  // ---- Worker invariance: every family's sharded aggregate must be
  // bit-identical at 1 and N workers (the PR-6 shard protocol).
  bool determinism_ok = true;
  std::string fingerprints;
  for (const UniverseFamily family :
       {UniverseFamily::kIncast, UniverseFamily::kTraceDriven, UniverseFamily::kAdversarial}) {
    ShardedUniverseConfig config;
    config.family = family;
    config.shards = quick ? 2 : 4;
    config.incast.fan_in = 8;
    config.incast.waves = 1;
    config.trace_driven.trace_path = traces_dir + "/cellular.trace";
    config.trace_driven.scheme = "cubic";
    config.trace_driven.duration = Seconds(1.0);
    config.adversarial.duration = Seconds(2.0);
    config.workers = 1;
    const ShardedRunResult serial = RunShardedUniverse(config);
    config.workers = ThreadPool::DefaultWorkerCount();
    const ShardedRunResult parallel = RunShardedUniverse(config);
    const bool match = serial.fingerprint == parallel.fingerprint &&
                       serial.events_executed == parallel.events_executed;
    determinism_ok &= match;
    const auto fingerprint = static_cast<unsigned long long>(serial.fingerprint);
    char entry[64];
    std::snprintf(entry, sizeof(entry), "%s%s %016llx%s", fingerprints.empty() ? "" : ", ",
                  UniverseFamilyName(family), fingerprint, match ? "" : " DIVERGED");
    fingerprints += entry;
    std::printf("  determinism %-12s: %s (%016llx)\n", UniverseFamilyName(family),
                match ? "bit-identical" : "DIVERGED", fingerprint);
    std::fflush(stdout);
  }
  record.Check("determinism.fingerprint_match", determinism_ok, fingerprints);

  const uint64_t violations = invariants::ViolationCount() - violations_before;
  record.Metric("invariant_violations", static_cast<double>(violations), "count");
  record.Check("invariant_violations_zero", violations == 0, std::to_string(violations));

  ConsoleTable table({"family", "scenario", "scheme", "util", "jain", "p95 ms", "loss"});
  std::set<std::string> families;
  for (const FamilyRow& row : rows) {
    table.AddRow({row.family, row.scenario, row.scheme,
                  ConsoleTable::Num(row.metrics.utilization, 3),
                  ConsoleTable::Num(row.metrics.jain, 3),
                  ConsoleTable::Num(row.metrics.p95_delay_ms, 1),
                  ConsoleTable::Num(row.metrics.loss_ratio, 4)});
    families.insert(row.family);
    const std::string key = "families." + row.family + "." + row.scenario + "." + row.scheme + ".";
    record.Metric(key + "utilization", row.metrics.utilization, "ratio");
    record.Metric(key + "jain", row.metrics.jain, "ratio");
    record.Metric(key + "p95_delay_ms", row.metrics.p95_delay_ms, "ms");
    record.Metric(key + "loss_ratio", row.metrics.loss_ratio, "ratio");
    record.Metric(key + "goodput_mbps", row.metrics.goodput_mbps, "Mbps");
    record.Metric(key + "requests", static_cast<double>(row.requests), "count");
    record.Metric(key + "completed", static_cast<double>(row.completed), "count");
    record.Metric(key + "p95_fct_ms", row.p95_fct_ms, "ms");
    record.Metric(key + "ecn_marked", static_cast<double>(row.ecn_marked), "count");
    record.Metric(key + "blast_share", row.blast_share, "ratio");
    record.Metric(key + "churn_flows", static_cast<double>(row.churn_flows), "count");
  }
  table.Print();
  std::string covered;
  for (const std::string& family : families) {
    covered += (covered.empty() ? "" : " ") + family;
  }
  record.Check("families_covered",
               families == std::set<std::string>{"datacenter", "trace_driven", "adversarial"},
               covered);
  return record.Finish();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
