// Scenario universe (DESIGN.md §15): three workload families that stress the
// controllers beyond the paper's figures, built on the sharded dumbbell
// runner (src/eval/scenario.h) so every family is deterministic,
// invariant-checkable and worker-invariant (1-vs-N fingerprint equality).
//
//  * Datacenter — N-to-1 incast with synchronized request waves on a
//    shallow-buffer, high-bandwidth, microsecond-RTT bottleneck, optionally
//    behind a DCTCP-style EcnMarkingQueue (ECN-blind schemes keep the
//    delay/drop signal: the marking queue never touches non-ECT packets).
//  * Trace-driven — the bottleneck's service rate replayed from a
//    Mahimahi-compatible capture (src/sim/link_trace.h; bundled
//    cellular/satellite traces under traces/).
//  * Adversarial — heavy-tailed (Pareto on/off) flow churn plus periodic
//    unresponsive UDP blasts that induce bufferbloat under long-lived
//    foreground flows.
//
// Each Build* function returns a ready-to-run DumbbellScenario; Run* wraps it
// with the family's scoring. RunShardedUniverse applies the shard protocol
// (Rng::DeriveSeed per shard, MixFingerprint aggregation in shard-index
// order) to any family.

#ifndef SRC_EVAL_SCENARIO_UNIVERSE_H_
#define SRC_EVAL_SCENARIO_UNIVERSE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/eval/scenario.h"
#include "src/eval/window_metrics.h"
#include "src/sim/link_trace.h"

namespace astraea {

// Seed stream for the universe's sharded runs (distinct from
// kSimScaleSeedStream so the families never alias the scale bench).
inline constexpr uint64_t kUniverseSeedStream = 0xA57AEA04;

// Shared score columns (the `families.*` metrics of bench_scenario_universe).
struct UniverseMetrics {
  double utilization = 0.0;    // delivered / capacity over the scored window
  double jain = 1.0;           // Jain index of the per-flow window means
  double p95_delay_ms = 0.0;   // p95 of per-MTP mean RTTs
  double loss_ratio = 0.0;     // lost / (lost + acked) bytes
  double goodput_mbps = 0.0;   // aggregate ACKed rate
  uint64_t fingerprint = 0;    // order-sensitive digest of per-flow outcomes
};

// ------------------------------------------------------------- datacenter

struct IncastConfig {
  RateBps bandwidth = Gbps(1);
  TimeNs base_rtt = Microseconds(500);
  uint64_t buffer_bytes = 128 * 1024;  // shallow: ~1/10 BDP at these defaults
  size_t fan_in = 32;                  // N synchronized senders to one sink
  uint64_t request_bytes = 64 * 1024;  // per-sender response size
  size_t waves = 2;                    // synchronized request rounds
  TimeNs wave_interval = Milliseconds(100);
  // Tiny per-flow start jitter inside a wave (switch arbitration, not
  // pacing): drawn per flow from the scenario seed.
  TimeNs start_jitter = Microseconds(50);
  std::string scheme = "dctcp";
  bool ecn = true;  // Qdisc::kEcn: marks above kEcnMarkThresholdBytes
  uint64_t seed = 1;
};

struct IncastResult {
  UniverseMetrics metrics;
  size_t requests = 0;        // fan_in * waves
  size_t completed = 0;       // requests fully resolved before the horizon
  double p95_fct_ms = 0.0;    // p95 flow completion time over completed
  double max_fct_ms = 0.0;
  uint64_t ecn_marked = 0;    // CE marks applied at the bottleneck
};

// Builds the incast dumbbell: one budgeted flow per (sender, wave), all of a
// wave starting within start_jitter of the wave boundary. `base_options`
// (when non-null) seeds the scenario's SchemeOptions before flows are added —
// how golden_trace pins the Astraea policy.
std::unique_ptr<DumbbellScenario> BuildIncast(const IncastConfig& config,
                                              const SchemeOptions* base_options = nullptr);
// The simulated horizon RunIncast uses (last wave + drain time).
TimeNs IncastHorizon(const IncastConfig& config);
IncastResult RunIncast(const IncastConfig& config);

// ------------------------------------------------------------ trace-driven

struct TraceDrivenConfig {
  std::string trace_path;                    // Mahimahi file, loaded when set
  std::shared_ptr<RateProvider> trace;       // pre-built override (tests)
  uint32_t mtu_bytes = 1500;
  TimeNs granularity = Milliseconds(20);     // bucketing for loaded traces
  TimeNs base_rtt = Milliseconds(40);
  double buffer_bdp = 20.0;                  // cellular-style deep buffer
  double random_loss = 0.0;
  std::string scheme = "astraea";
  size_t flows = 1;
  TimeNs duration = Seconds(10.0);
  uint64_t seed = 1;
};

struct TraceDrivenResult {
  UniverseMetrics metrics;
};

std::unique_ptr<DumbbellScenario> BuildTraceDriven(const TraceDrivenConfig& config,
                                                   const SchemeOptions* base_options = nullptr);
TraceDrivenResult RunTraceDriven(const TraceDrivenConfig& config);

// ------------------------------------------------------------- adversarial

struct AdversarialConfig {
  RateBps bandwidth = Mbps(100);
  TimeNs base_rtt = Milliseconds(30);
  double buffer_bdp = 2.0;
  std::string scheme = "cubic";        // long-lived foreground flows
  size_t long_flows = 2;
  // Heavy-tailed churn: churn_slots independent on/off processes, each ON
  // period one `churn_scheme` flow with Pareto(alpha, min_on) duration and
  // Exponential(mean_off) gaps. All periods are precomputed from the seed,
  // so the schedule is deterministic.
  size_t churn_slots = 4;
  std::string churn_scheme = "newreno";
  double pareto_alpha = 1.5;           // heavy-tailed but finite-mean
  TimeNs pareto_min_on = Milliseconds(200);
  TimeNs mean_off = Milliseconds(300);
  // Bufferbloat blasts: an unresponsive UDP flow at blast_fraction of the
  // bottleneck rate, ON for blast_on at every blast_period boundary.
  double blast_fraction = 0.5;         // 0 disables the blaster
  TimeNs blast_period = Seconds(4.0);
  TimeNs blast_on = Seconds(1.0);
  TimeNs duration = Seconds(10.0);
  uint64_t seed = 1;
};

struct AdversarialResult {
  UniverseMetrics metrics;   // scored over the foreground (long-lived) flows
  size_t churn_flows = 0;    // ON periods scheduled across all slots
  double blast_share = 0.0;  // fraction of delivered bytes taken by blasts
};

std::unique_ptr<DumbbellScenario> BuildAdversarial(const AdversarialConfig& config,
                                                   const SchemeOptions* base_options = nullptr);
AdversarialResult RunAdversarial(const AdversarialConfig& config);

// ----------------------------------------------------------- shard protocol

enum class UniverseFamily { kIncast, kTraceDriven, kAdversarial };

const char* UniverseFamilyName(UniverseFamily family);

// One sharded universe run: `shards` independent copies of the chosen family,
// shard i seeded with Rng::DeriveSeed(seed_stream, i) (overriding the family
// config's own seed). Reuses ShardResult/ShardedRunResult from scenario.h so
// the sharded runner's worker-invariance tests and tooling apply unchanged.
struct ShardedUniverseConfig {
  UniverseFamily family = UniverseFamily::kIncast;
  IncastConfig incast;
  TraceDrivenConfig trace_driven;
  AdversarialConfig adversarial;
  size_t shards = 1;
  size_t workers = 1;  // <=1 runs inline on the calling thread
  uint64_t seed_stream = kUniverseSeedStream;
};

ShardedRunResult RunShardedUniverse(const ShardedUniverseConfig& config);

}  // namespace astraea

#endif  // SRC_EVAL_SCENARIO_UNIVERSE_H_
