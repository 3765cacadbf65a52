// Canned experiment drivers shared by several benches: the §5.1.1 staggered
// three-flow scenario (Figs. 6, 7, 12, Table 1) and its convergence /
// stability summaries (the paper's Fig. 12 definitions).
//
// Repeated runs fan out across a worker pool (RunReps / ParallelMap). Each rep
// derives its seed as Rng::DeriveSeed(stream, rep), so (a) distinct experiment
// families can never collide whatever the rep count, and (b) results are
// bit-identical for any worker count — per-rep outputs are reduced in rep
// order after the parallel section.

#ifndef BENCH_HARNESS_EXPERIMENTS_H_
#define BENCH_HARNESS_EXPERIMENTS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/scenario.h"
#include "src/eval/window_metrics.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace astraea {

// Seed streams for the canned experiment families. Any new repeated
// experiment should claim its own constant here instead of inventing an
// additive seed base.
inline constexpr uint64_t kConvergenceSeedStream = 0xA57AEA01;
inline constexpr uint64_t kJainSeedStream = 0xA57AEA02;

// Runs body(rep, seed) for rep in [0, reps) across `workers` threads
// (0 = ThreadPool::DefaultWorkerCount(), 1 = inline); seeds come from
// Rng::DeriveSeed(stream, rep). Results are returned in rep order.
template <typename T>
std::vector<T> RunReps(int reps, uint64_t stream,
                       const std::function<T(int rep, uint64_t seed)>& body,
                       size_t workers = 0) {
  return ParallelMap(
      static_cast<size_t>(reps),
      [&](size_t rep) {
        return body(static_cast<int>(rep), Rng::DeriveSeed(stream, rep));
      },
      workers);
}

struct StaggeredConfig {
  DumbbellConfig link;            // bandwidth / RTT / buffer
  int flows = 3;
  TimeNs start_interval = Seconds(40.0);
  TimeNs flow_duration = Seconds(120.0);
  TimeNs until = Seconds(200.0);
};

// The paper's default §5.1.1 setup: 100 Mbps, 30 ms, 1 BDP; 3 flows starting
// every 40 s, each running 120 s.
StaggeredConfig DefaultStaggeredConfig();

// Builds and runs the staggered scenario for `scheme`. Returns the scenario
// (which owns the Network with all per-flow statistics).
std::unique_ptr<DumbbellScenario> RunStaggeredScenario(const std::string& scheme,
                                                       const StaggeredConfig& config,
                                                       uint64_t seed);

struct SchemeConvergenceSummary {
  std::string scheme;
  double avg_convergence_s = 0.0;   // over events that did converge
  double avg_stability_mbps = 0.0;  // post-convergence stddev
  double avg_jain = 0.0;            // over >=2-flow timeslots
  double utilization = 0.0;
  int converged_events = 0;
  int total_events = 0;
};

// Runs `reps` staggered scenarios (in parallel across `workers`) and
// aggregates the Fig. 12 metrics: after each flow arrival/departure, every
// active flow should converge to the new fair share within +-`tol`. The
// result is identical for any worker count.
SchemeConvergenceSummary MeasureStaggeredConvergence(const std::string& scheme,
                                                     const StaggeredConfig& config, int reps,
                                                     double tol = 0.10, size_t workers = 0);

// All per-timeslot Jain samples pooled over `reps` runs (Fig. 7's CDF input),
// reps fanned out across `workers`, samples concatenated in rep order.
std::vector<double> CollectJainSamples(const std::string& scheme,
                                       const StaggeredConfig& config, int reps,
                                       size_t workers = 0);

// One rep of the Fig. 7 Jain collection (seed derived from kJainSeedStream);
// benches that fan out over scheme x rep pairs call this directly.
std::vector<double> CollectJainSamplesRep(const std::string& scheme,
                                          const StaggeredConfig& config, int rep);

}  // namespace astraea

#endif  // BENCH_HARNESS_EXPERIMENTS_H_
