// Million-flow simulator-core scaling. Two parts:
//
//  1. Scheduler microbench: the in-tree calendar EventQueue against the
//     original binary-heap scheduler (bench/harness/heap_event_queue.h) on a
//     sim-shaped timer workload — per-flow self-rescheduling ack timers, and
//     a variant where every ack also cancels and re-arms the flow's RTO timer
//     (the cancel churn the seed heap's linear cancel scan collapses under).
//     Both queues run the identical deterministic event sequence; a digest
//     over the firings both completed (the first `target`, or as many as a
//     wall-clock-capped side reached, recomputed untimed for the other side)
//     cross-checks that the speedup is not a behaviour change. Slow
//     configurations are wall-clock capped and reported as such.
//
//  2. End-to-end sharded scenarios: RunShardedDumbbell at 1k/10k/100k/1M
//     total flows (cubic, independent bottlenecks), reporting events/sec and
//     flow-seconds/sec, plus a 1-vs-N-worker fingerprint check proving the
//     sharded aggregate is worker-count invariant.
//
// Prints the record's metrics and writes it to BENCH_sim_scale.json (--out
// PATH overrides). Three checks fail the run: the 1-vs-4-worker fingerprints
// differ, the two schedulers' digests differ over their common firings, or
// an rto_churn speedup is 5x or less. `--quick` restricts both parts to the
// 1k/10k sizes for CI smoke.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness/heap_event_queue.h"
#include "src/eval/bench_record.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace astraea {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Per-flow sender-shaped timer churn: an ack-clocked timer firing every
// ~[50us, 2ms] (deterministic per-flow LCG), and in churn mode an RTO timer
// at +300ms that every firing cancels and re-arms — so cancelled entries
// dominate, which is precisely where the heap's linear cancel scan collapses
// and the calendar queue's pooled O(1) Cancel does not.
template <typename Queue>
class TimerWorkload {
 public:
  TimerWorkload(size_t flows, uint64_t digest_events, bool rto_churn)
      : digest_events_(digest_events), rto_churn_(rto_churn), prng_(flows), rto_(flows, 0) {
    for (size_t i = 0; i < flows; ++i) {
      prng_[i] = Rng::DeriveSeed(0xBE9C5CA1EULL, i);
      ScheduleAck(i);
      if (rto_churn_) {
        rto_[i] = queue_.Schedule(queue_.now() + kRtoDelay, [] {});
      }
    }
  }

  Queue& queue() { return queue_; }
  uint64_t fires() const { return fires_; }
  uint64_t digest() const { return digest_; }

 private:
  static constexpr TimeNs kRtoDelay = Milliseconds(300);

  void ScheduleAck(size_t flow) {
    queue_.ScheduleAfter(NextDelay(flow), [this, flow] { Fire(flow); });
  }

  void Fire(size_t flow) {
    if (fires_ < digest_events_) {
      digest_ = MixFingerprint(digest_, (static_cast<uint64_t>(queue_.now()) << 8) ^ flow);
    }
    ++fires_;
    if (rto_churn_) {
      queue_.Cancel(rto_[flow]);
      rto_[flow] = queue_.ScheduleAfter(kRtoDelay, [] {});
    }
    ScheduleAck(flow);
  }

  TimeNs NextDelay(size_t flow) {
    uint64_t& x = prng_[flow];
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return Microseconds(50) + static_cast<TimeNs>((x >> 33) % 1'950'000);
  }

  Queue queue_;
  const uint64_t digest_events_;
  const bool rto_churn_;
  std::vector<uint64_t> prng_;
  std::vector<uint64_t> rto_;
  uint64_t fires_ = 0;
  uint64_t digest_ = 0;
};

struct SchedulerRun {
  uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  bool capped = false;       // hit the wall-clock cap before `target` events
  uint64_t fires = 0;        // ack firings completed
  uint64_t digest = 0;       // over the first min(fires, target) firings
};

template <typename Queue>
SchedulerRun DriveScheduler(size_t flows, uint64_t target, double wall_cap_s,
                            bool rto_churn) {
  TimerWorkload<Queue> workload(flows, target, rto_churn);
  Queue& q = workload.queue();
  const auto start = Clock::now();
  while (q.executed() < target) {
    q.RunUntil(q.now() + Milliseconds(1));
    if (SecondsSince(start) > wall_cap_s && q.executed() < target) {
      break;
    }
  }
  SchedulerRun run;
  run.seconds = SecondsSince(start);
  run.events = q.executed();
  run.events_per_sec = static_cast<double>(run.events) / run.seconds;
  run.capped = run.events < target;
  run.fires = workload.fires();
  run.digest = workload.digest();
  return run;
}

// The digest of the workload's first `fires` firings, untimed: the other
// side's digest over the firings a capped run completed.
template <typename Queue>
uint64_t DigestOfFirstFires(size_t flows, uint64_t fires, bool rto_churn) {
  TimerWorkload<Queue> workload(flows, fires, rto_churn);
  Queue& q = workload.queue();
  while (workload.fires() < fires) {
    q.RunUntil(q.now() + Milliseconds(1));
  }
  return workload.digest();
}

// Digests of both sides over the firings both completed. A capped side's
// digest already covers all of its firings, which are fewer than `target`;
// the side with more firings is re-run up to that count.
std::pair<uint64_t, uint64_t> CommonDigests(const SchedulerRun& calendar,
                                            const SchedulerRun& heap, size_t flows,
                                            bool rto_churn) {
  if (!calendar.capped && !heap.capped) {
    return {calendar.digest, heap.digest};
  }
  if (heap.fires <= calendar.fires) {
    return {DigestOfFirstFires<EventQueue>(flows, heap.fires, rto_churn), heap.digest};
  }
  return {calendar.digest,
          DigestOfFirstFires<SeedHeapEventQueue>(flows, calendar.fires, rto_churn)};
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int Main(int argc, char** argv) {
  BenchRecord record("sim_scale", argc, argv);
  if (!record.args_ok()) {
    return 1;
  }
  const bool quick = record.quick();
  PrintBenchHeader("SimScale",
                   "Calendar event queue vs seed heap; sharded million-flow scenarios");

  // ---- Part 1: scheduler microbench.
  const std::vector<size_t> sched_sizes =
      quick ? std::vector<size_t>{1'000, 10'000}
            : std::vector<size_t>{1'000, 10'000, 100'000, 1'000'000};
  const double wall_cap_s = quick ? 5.0 : 10.0;
  bool digests_ok = true;
  bool churn_ok = true;
  std::string compared, churn_speedups;
  for (const bool churn : {true, false}) {
    for (const size_t flows : sched_sizes) {
      // Enough events for a stable rate without dwarfing setup; ~2 ack
      // rounds per flow at the largest sizes.
      const uint64_t target =
          std::max<uint64_t>(200'000, std::min<uint64_t>(20 * flows, 2'000'000));
      const char* workload = churn ? "rto_churn" : "steady";
      const SchedulerRun calendar = DriveScheduler<EventQueue>(flows, target, wall_cap_s, churn);
      const SchedulerRun heap =
          DriveScheduler<SeedHeapEventQueue>(flows, target, wall_cap_s, churn);
      const double speedup = calendar.events_per_sec / heap.events_per_sec;
      const auto [calendar_digest, heap_digest] = CommonDigests(calendar, heap, flows, churn);
      const bool digest_match = calendar_digest == heap_digest;
      const std::string row = std::string(workload) + "." + std::to_string(flows);
      compared += (compared.empty() ? "" : ", ") + row;
      if (calendar.capped || heap.capped) {
        compared += " (first " + std::to_string(std::min(calendar.fires, heap.fires)) +
                    " firings)";
      }
      digests_ok &= digest_match;
      if (churn) {
        churn_ok &= speedup > 5.0;
        churn_speedups += (churn_speedups.empty() ? "" : ", ") + row + " " +
                          ConsoleTable::Num(speedup, 1) + "x";
      }
      for (const auto& [side, run] : {std::pair{"calendar", &calendar}, {"seed_heap", &heap}}) {
        const std::string key = "scheduler." + row + "." + side;
        record.Metric(key + ".events", static_cast<double>(run->events), "count");
        record.Metric(key + ".seconds", run->seconds, "s");
        record.Metric(key + ".events_per_sec", run->events_per_sec, "events/s");
        record.Metric(key + ".capped", run->capped, "bool");
      }
      record.Metric("scheduler." + row + ".speedup", speedup, "x");
      std::printf("  scheduler %-9s %8zu flows: calendar %10.0f ev/s, seed heap %10.0f ev/s%s"
                  " (%.1fx)%s\n",
                  workload, flows, calendar.events_per_sec, heap.events_per_sec,
                  heap.capped ? " [capped]" : "", speedup, digest_match ? "" : "  DIGEST MISMATCH");
      std::fflush(stdout);
    }
  }
  record.Check("scheduler.digests_match", digests_ok, "compared: " + compared);
  record.Check("scheduler.rto_churn_speedup_over_5x", churn_ok, churn_speedups);

  // ---- Part 2: end-to-end sharded scenarios.
  struct Shape {
    size_t total, shards, per_shard;
    double sim_seconds;
  };
  const std::vector<Shape> shapes =
      quick ? std::vector<Shape>{{1'000, 10, 100, 0.5}, {10'000, 100, 100, 0.2}}
            : std::vector<Shape>{{1'000, 10, 100, 2.0},
                                 {10'000, 100, 100, 1.0},
                                 {100'000, 1'000, 100, 0.5},
                                 {1'000'000, 10'000, 100, 0.2}};
  for (const Shape& shape : shapes) {
    ShardedDumbbellConfig config;
    config.scheme = "cubic";
    config.shards = shape.shards;
    config.flows_per_shard = shape.per_shard;
    config.flow_duration = Seconds(shape.sim_seconds);
    config.workers = ThreadPool::DefaultWorkerCount();
    const auto start = Clock::now();
    const ShardedRunResult result = RunShardedDumbbell(config);
    const double wall_seconds = SecondsSince(start);
    const double events_per_sec = static_cast<double>(result.events_executed) / wall_seconds;
    const double flow_seconds_per_sec = result.flow_seconds / wall_seconds;
    const std::string key = "end_to_end." + std::to_string(shape.total) + ".";
    record.Metric(key + "events", static_cast<double>(result.events_executed), "count");
    record.Metric(key + "wall_seconds", wall_seconds, "s");
    record.Metric(key + "events_per_sec", events_per_sec, "events/s");
    record.Metric(key + "flow_seconds_per_sec", flow_seconds_per_sec, "flow-s/s");
    record.Metric(key + "max_packet_pool_slots", static_cast<double>(result.max_packet_slots),
                  "count");
    std::printf("  end-to-end %8zu flows (%5zu shards x %zu): %10.0f ev/s, %8.1f"
                " flow-s/s, max pool %zu slots, fingerprint %s\n",
                shape.total, shape.shards, shape.per_shard, events_per_sec,
                flow_seconds_per_sec, result.max_packet_slots,
                Hex(result.fingerprint).c_str());
    std::fflush(stdout);
  }

  // ---- Worker-count invariance: the sharded aggregate must be bit-identical
  // whether shards run serially or across the pool.
  ShardedDumbbellConfig det_config;
  det_config.scheme = "cubic";
  det_config.shards = 8;
  det_config.flows_per_shard = 20;
  det_config.flow_duration = Seconds(0.3);
  det_config.workers = 1;
  const ShardedRunResult serial = RunShardedDumbbell(det_config);
  det_config.workers = 4;
  const ShardedRunResult parallel = RunShardedDumbbell(det_config);
  record.Check("determinism.fingerprint_match",
               serial.fingerprint == parallel.fingerprint &&
                   serial.events_executed == parallel.events_executed &&
                   serial.bytes_acked == parallel.bytes_acked,
               "8 shards x 20 flows: " + Hex(serial.fingerprint) + " at 1 worker, " +
                   Hex(parallel.fingerprint) + " at 4");
  record.PrintMetrics();
  return record.Finish();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
