// Cross-scheme property sweeps: every congestion controller, across a grid of
// network conditions, must satisfy the basic contract — make progress on a
// clean link, never exceed physical capacity, keep loss bounded on adequate
// buffers, and recover after capacity changes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/core/schemes.h"
#include "src/sim/invariants.h"
#include "src/sim/network.h"
#include "src/sim/queue_disc.h"

namespace astraea {
namespace {

struct GridPoint {
  std::string scheme;
  double bw_mbps;
  int rtt_ms;
};

class SchemeGridProperty : public ::testing::TestWithParam<GridPoint> {};

TEST_P(SchemeGridProperty, MakesProgressWithinPhysicalBounds) {
  const GridPoint& p = GetParam();
  Network net(13);
  LinkConfig link;
  link.rate = Mbps(p.bw_mbps);
  link.propagation_delay = Milliseconds(p.rtt_ms) / 2;
  link.buffer_bytes =
      std::max<uint64_t>(BdpBytes(link.rate, Milliseconds(p.rtt_ms)), 6000);
  net.AddLink(link);
  SchemeOptions options;
  FlowSpec spec;
  spec.scheme = p.scheme;
  spec.make_cc = MakeSchemeFactory(p.scheme, &options);
  net.AddFlow(spec);

  const TimeNs until = Seconds(20.0);
  net.Run(until);
  const FlowStats& stats = net.flow_stats(0);

  // Progress floor: most schemes achieve far more. Vegas' +1-MSS/RTT probing
  // and Remy's fixed design-range table are legitimately slow at 400 Mbps x
  // 80 ms (a 2700-packet BDP) — their floors reflect those known weaknesses.
  const bool slow_at_big_bdp =
      (p.scheme == "vegas" || p.scheme == "remy") && p.bw_mbps >= 400.0;
  const double floor = slow_at_big_bdp ? 0.05 : 0.25;
  const double thr = stats.throughput_mbps.MeanOver(until / 2, until);
  EXPECT_GT(thr / p.bw_mbps, floor) << p.scheme;
  // Physical bound.
  EXPECT_LE(static_cast<double>(stats.bytes_acked) * 8.0,
            net.link(0).provider().CapacityBits(0, until) * 1.01);
  // Sanity: loss stays below 20% even for the aggressive schemes.
  const double loss = static_cast<double>(stats.bytes_lost) /
                      std::max<uint64_t>(stats.bytes_sent, 1);
  EXPECT_LT(loss, 0.2) << p.scheme;
  // RTT never collapses below the propagation floor.
  const double min_rtt_ms = ToMillis(net.sender(0).min_rtt());
  EXPECT_GE(min_rtt_ms, p.rtt_ms - 1.0) << p.scheme;
}

std::vector<GridPoint> MakeGrid() {
  std::vector<GridPoint> grid;
  for (const char* scheme :
       {"newreno", "cubic", "vegas", "bbr", "copa", "vivace", "aurora", "orca", "remy",
        "astraea"}) {
    for (const auto& [bw, rtt] : std::vector<std::pair<double, int>>{
             {20.0, 10}, {100.0, 40}, {400.0, 80}}) {
      grid.push_back({scheme, bw, rtt});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, SchemeGridProperty, ::testing::ValuesIn(MakeGrid()),
                         [](const ::testing::TestParamInfo<GridPoint>& point) {
                           return point.param.scheme + "_" +
                                  std::to_string(static_cast<int>(point.param.bw_mbps)) + "M_" +
                                  std::to_string(point.param.rtt_ms) + "ms";
                         });

// Two homogeneous flows of every scheme: long-run Jain must clear a per-family
// floor (loss-based AIMD is rough but never starves a same-RTT peer).
class HomogeneousFairness : public ::testing::TestWithParam<const char*> {};

TEST_P(HomogeneousFairness, SameRttPeersShareWithoutStarvation) {
  const std::string scheme = GetParam();
  Network net(17);
  LinkConfig link;
  link.rate = Mbps(100);
  link.propagation_delay = Milliseconds(20);
  link.buffer_bytes = BdpBytes(Mbps(100), Milliseconds(40));
  net.AddLink(link);
  SchemeOptions options;
  for (int i = 0; i < 2; ++i) {
    FlowSpec spec;
    spec.scheme = scheme;
    spec.make_cc = MakeSchemeFactory(scheme, &options);
    net.AddFlow(spec);
  }
  net.Run(Seconds(60.0));
  const double thr0 = net.flow_stats(0).throughput_mbps.MeanOver(Seconds(30.0), Seconds(60.0));
  const double thr1 = net.flow_stats(1).throughput_mbps.MeanOver(Seconds(30.0), Seconds(60.0));
  const double jain = JainIndex(std::vector<double>{thr0, thr1});
  // Vivace's online gradient steps make its (provable) fairness asymptotic —
  // 60s is not enough to clear the general floor (the §2/Fig. 1b phenomenon).
  const double floor = scheme == "vivace" ? 0.4 : 0.7;
  EXPECT_GT(jain, floor) << scheme << ": " << thr0 << " vs " << thr1;
}

// Aurora is deliberately excluded: its fairness failure is the paper's point.
INSTANTIATE_TEST_SUITE_P(Schemes, HomogeneousFairness,
                         ::testing::Values("newreno", "cubic", "vegas", "bbr", "copa",
                                           "vivace", "orca", "remy", "astraea"));

// Randomized invariant sweep: every controller across 20 random
// parameterizations of 3 topology families (DropTail dumbbell with two flows,
// RED + wire loss, two-hop DropTail path), each run with the invariant checker
// in hard-fail mode. The checker throws on the first conservation / causality /
// FIFO / queue-bound / cwnd-sanity slip, so passing means every step of every
// run kept the simulator's books balanced. Parameters derive from
// Rng::DeriveSeed so the sweep is reproducible and each (rep, topology) cell is
// decorrelated; the SCOPED_TRACE names the cell on failure.
class SchemeInvariantSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemeInvariantSweep, RandomizedTopologiesRunCleanUnderFatalChecker) {
  const std::string scheme = GetParam();
  invariants::ScopedMode fatal(invariants::Mode::kFatal);
  const uint64_t violations_before = invariants::ViolationCount();

  constexpr int kReps = 20;
  constexpr uint64_t kSweepStream = 0xA57AEA5EEDULL;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int topology = 0; topology < 3; ++topology) {
      const uint64_t seed = Rng::DeriveSeed(kSweepStream, rep * 3 + topology);
      SCOPED_TRACE(scheme + " rep=" + std::to_string(rep) + " topology=" +
                   std::to_string(topology) + " seed=" + std::to_string(seed));
      Rng rng(seed);
      const double bw_mbps = rng.Uniform(3.0, 50.0);
      const TimeNs rtt = Seconds(rng.Uniform(10.0, 100.0) / 1e3);
      const double buffer_bdps = rng.Uniform(0.5, 2.0);

      Network net(seed);
      LinkConfig link;
      link.rate = Mbps(bw_mbps);
      link.propagation_delay = rtt / 2;
      link.buffer_bytes = std::max<uint64_t>(
          static_cast<uint64_t>(buffer_bdps * BdpBytes(link.rate, rtt)), 6000);
      int flows = 1;
      switch (topology) {
        case 0:  // DropTail dumbbell, two competing flows.
          net.AddLink(link);
          flows = 2;
          break;
        case 1: {  // RED bottleneck with iid wire loss.
          link.random_loss = rng.Uniform(0.0, 0.02);
          RedConfig red;
          red.capacity_bytes = link.buffer_bytes;
          link.queue_factory = [red](Rng q) {
            return std::make_unique<RedQueue>(red, q);
          };
          net.AddLink(link);
          break;
        }
        case 2: {  // Two-hop path; the first hop is the bottleneck.
          net.AddLink(link);
          LinkConfig fast = link;
          fast.queue_factory = nullptr;
          fast.rate = Mbps(bw_mbps * rng.Uniform(1.5, 3.0));
          net.AddLink(fast);
          break;
        }
      }
      SchemeOptions options;
      for (int f = 0; f < flows; ++f) {
        FlowSpec spec;
        spec.scheme = scheme;
        spec.make_cc = MakeSchemeFactory(scheme, &options);
        if (topology == 2) {
          spec.link_path = {0, 1};
        }
        net.AddFlow(spec);
      }
      net.Run(Seconds(2.0));
      // The run must have been a real workload, not a stalled no-op.
      EXPECT_GT(net.flow_stats(0).bytes_acked, 0u);
    }
  }
  EXPECT_EQ(invariants::ViolationCount(), violations_before);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeInvariantSweep,
                         ::testing::Values("newreno", "cubic", "vegas", "bbr", "copa",
                                           "vivace", "aurora", "orca", "remy",
                                           "astraea"));

}  // namespace
}  // namespace astraea
