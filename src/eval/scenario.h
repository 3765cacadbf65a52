// The single-bottleneck ("dumbbell") builder every evaluation path shares:
// the scorer (src/train/scoring.h), the training environment
// (src/core/multi_flow_env.h), the CLI tools, the benches and the examples.
// It owns the paper's parameterization (bandwidth, base RTT, buffer in BDP
// multiples, optional random loss or a rate trace), the one buffer-sizing
// rule and the one queue-discipline switch, plus the sharded scale-out
// runner.

#ifndef SRC_EVAL_SCENARIO_H_
#define SRC_EVAL_SCENARIO_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/schemes.h"
#include "src/sim/network.h"
#include "src/sim/queue_disc.h"
#include "src/sim/rate_provider.h"

namespace astraea {

// The one BDP buffer rule: `buffer_bdp` x BDP(bandwidth, base_rtt), never
// below two 1500-byte packets.
uint64_t BdpBufferBytes(RateBps bandwidth, TimeNs base_rtt, double buffer_bdp);

enum class Qdisc {
  kDropTail,
  kRed,
  kCoDel,
  kEcn,  // DropTail wrapped in an EcnMarkingQueue marking above 30 KB
};

// Lower-case name: "droptail", "red", "codel" or "ecn".
const char* QdiscName(Qdisc qdisc);

// DCTCP's marking threshold K for Qdisc::kEcn, below the buffers it wraps.
inline constexpr uint64_t kEcnMarkThresholdBytes = 30'000;

// The one queue-discipline switch, each queue holding `capacity_bytes`.
// DropTail returns no factory: the link then builds its default
// DropTail(buffer_bytes) without forking its RNG, which keeps random-loss
// draws where they have always been.
QueueFactory MakeQueueFactory(Qdisc qdisc, uint64_t capacity_bytes);

struct DumbbellConfig {
  RateBps bandwidth = Mbps(100);        // sizes the buffer, even with a trace
  TimeNs base_rtt = Milliseconds(30);   // full round trip (propagation)
  double buffer_bdp = 1.0;              // bottleneck buffer as a BDP multiple
  double random_loss = 0.0;
  std::shared_ptr<RateProvider> trace;  // drives the service rate when set
  QueueFactory queue_factory;           // AQM override (default DropTail)
  uint64_t seed = 1;
};

// Seed stream for the sharded scale-out runs (bench_sim_scale and the
// sim_scale tests); shard i simulates with Rng::DeriveSeed(stream, i).
inline constexpr uint64_t kSimScaleSeedStream = 0xA57AEA03;

// Order-sensitive 64-bit combiner (boost::hash_combine layout over a
// SplitMix-style constant) shared by every sharded runner. Not cryptographic
// — just collision-resistant enough that a perturbed simulation can't
// plausibly produce the same digest.
inline uint64_t MixFingerprint(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

class DumbbellScenario {
 public:
  explicit DumbbellScenario(DumbbellConfig config);

  // Adds a flow of the named scheme; returns its flow id. `extra_rtt` adds
  // one-way return delay for RTT-heterogeneity experiments.
  int AddFlow(const std::string& scheme, TimeNs start, TimeNs duration = -1,
              TimeNs extra_rtt = 0);
  int AddFlowWithFactory(const std::string& label, CcFactory factory, TimeNs start,
                         TimeNs duration = -1, TimeNs extra_rtt = 0);
  // Full control over the per-flow SenderConfig (budgeted incast requests,
  // non-default MTP/MSS).
  int AddFlowWithConfig(const std::string& scheme, SenderConfig sender, TimeNs start,
                        TimeNs duration = -1, TimeNs extra_rtt = 0);

  void Run(TimeNs until);

  Network& network() { return *network_; }
  const Network& network() const { return *network_; }
  const DumbbellConfig& config() const { return config_; }
  SchemeOptions& scheme_options() { return options_; }
  Link& bottleneck() { return network_->link(0); }

  // BdpBufferBytes of the config's bandwidth, base RTT and buffer_bdp.
  uint64_t BufferBytes() const;

 private:
  DumbbellConfig config_;
  SchemeOptions options_;
  std::unique_ptr<Network> network_;
};

// ---------------------------------------------------------------------------
// Sharded scale-out: N independent dumbbell bottlenecks, each a self-contained
// Network seeded with Rng::DeriveSeed(seed_stream, shard). Because shards
// share no state, they can run on any number of ThreadPool workers and the
// aggregate — assembled in shard-index order — is bit-identical to a serial
// run. This is how the simulator reaches million-flow scenarios on one box.

struct ShardedDumbbellConfig {
  DumbbellConfig shard;        // per-shard template; its seed is overridden
  std::string scheme = "cubic";
  size_t shards = 1;
  size_t flows_per_shard = 1;
  TimeNs flow_duration = Seconds(1.0);
  // Flow starts are staggered uniformly in [0, max_start_stagger] by the
  // shard's own Rng stream, so shards don't tick in lockstep.
  TimeNs max_start_stagger = Milliseconds(100);
  uint64_t seed_stream = kSimScaleSeedStream;
  size_t workers = 1;  // <=1 runs inline on the calling thread
};

// Everything a shard reports is a pure function of (seed_stream, shard index,
// config), so equal fingerprints mean equal simulations.
struct ShardResult {
  uint64_t events_executed = 0;
  uint64_t bytes_acked = 0;
  uint64_t bytes_lost = 0;
  size_t packet_slots = 0;       // pool capacity at the horizon
  size_t packets_live = 0;       // still in flight/queued at the horizon
  uint64_t packets_recycled = 0;
  uint64_t fingerprint = 0;      // order-sensitive digest of per-flow outcomes
};

struct ShardedRunResult {
  std::vector<ShardResult> shards;  // shard-index order, whatever the workers
  uint64_t events_executed = 0;
  uint64_t bytes_acked = 0;
  uint64_t bytes_lost = 0;
  size_t max_packet_slots = 0;      // worst single-shard pool footprint
  double flow_seconds = 0.0;        // shards * flows_per_shard * duration
  uint64_t fingerprint = 0;         // shard fingerprints combined in order
};

// Runs run_shard(i) for i in [0, shards) on `workers` threads and aggregates
// the results in shard-index order, so the combined fingerprint is
// worker-invariant. Leaves flow_seconds 0.
ShardedRunResult RunShards(size_t shards, size_t workers,
                           const std::function<ShardResult(size_t shard)>& run_shard);

// Runs one shard (used by tests to cross-check determinism shard by shard).
ShardResult RunDumbbellShard(const ShardedDumbbellConfig& config, size_t shard_index);

// Runs all shards on `config.workers` threads and aggregates in shard order.
ShardedRunResult RunShardedDumbbell(const ShardedDumbbellConfig& config);

}  // namespace astraea

#endif  // SRC_EVAL_SCENARIO_H_
