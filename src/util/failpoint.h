// Always-compiled failpoint registry for fault-injection testing.
//
// A failpoint is a named site in production code where a test can inject a
// hard crash (simulating a kill -9 / OOM-kill / power cut) or a thrown error.
// Sites cost one relaxed atomic load when no failpoint is armed, so they are
// compiled into every build — crash-safety is verified on the exact binaries
// that ship, not on a special instrumented build.
//
// Configuration, either:
//   - environment: ASTRAEA_FAILPOINTS="ckpt.commit.before_rename=1" (parsed
//     once, at the first site evaluation), or
//   - programmatic: failpoint::Configure("train.episode=4") — replaces the
//     whole registry; the tool for test children after fork().
//
// Spec grammar:  site=N[:action] [, site=N[:action]]...
//   N        trigger on the Nth execution of the site (1 = first hit)
//   action   "crash" (default): _exit(kCrashExitCode) without flushing
//            anything — the closest user-space approximation of a hard kill;
//            "throw": throw failpoint::Injected once, then disarm;
//            "stall" / "stall:<duration>": sleep that long at the site (default
//            10ms), then disarm — models a GC pause / scheduler stall / page
//            fault storm rather than a death, for soak tests that must prove
//            deadlines hold when the process is merely slow.
//
// Named sites in this codebase (grep ASTRAEA_FAILPOINT for ground truth):
//   ckpt.commit.*              WriteFileDurably (checkpoint commits and
//                              the promotion gate's AtomicInstall):
//   ckpt.commit.begin          before the checkpoint tmp file is created
//   ckpt.commit.torn_write     after half the payload bytes hit the tmp file
//   ckpt.commit.before_fsync   payload fully written, not yet durable
//   ckpt.commit.before_rename  tmp durable, final path still the old file
//   ckpt.commit.before_dirsync renamed, directory entry not yet fsynced
//   train.episode              top of each VectorizedTrainer::Train episode
//   serve.flush.mid_batch      astraea_serve: requests drained from client
//                              rings, no response written yet (worst case)
//   serve.respond.corrupt      astraea_serve: ":throw" corrupts one response
//                              CRC instead, exercising client validation
//   sim.queue.drop_uncounted   Link::Accept: while armed, the arriving packet
//                              silently vanishes without being counted as a
//                              drop — an intentionally injectable simulator
//                              bug that the invariant checker (broken link
//                              conservation) and the golden-trace diff must
//                              both catch. Unlike the sites above, this one
//                              acts as a level trigger: the bug is live for
//                              every packet while armed, not on the Nth hit.

#ifndef SRC_UTIL_FAILPOINT_H_
#define SRC_UTIL_FAILPOINT_H_

#include <atomic>
#include <stdexcept>
#include <string>

namespace astraea {
namespace failpoint {

// Exit code used by the "crash" action, distinguishable from asserts/aborts
// in the parent's waitpid status.
inline constexpr int kCrashExitCode = 86;

// Thrown by the "throw" action.
class Injected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Replaces the registry with `spec` (see grammar above). An empty spec
// disarms everything. Throws std::invalid_argument on malformed specs.
void Configure(const std::string& spec);

// Parses `spec` exactly as Configure would, throwing std::invalid_argument on
// any malformed item, without touching the registry. Lets schedule builders
// (src/util/chaos.h) reject typos eagerly instead of mid-soak.
void Validate(const std::string& spec);

// Disarms all failpoints.
void Clear();

// True if `site` has an armed (not yet exhausted) entry.
bool IsArmed(const char* site);

// Slow path: counts down the site's entry and performs its action when the
// countdown reaches zero. Called via ASTRAEA_FAILPOINT only when armed.
void Hit(const char* site);

// Fast-path flag: true iff any failpoint entry is armed.
extern std::atomic<bool> g_any_armed;

inline void MaybeHit(const char* site) {
  if (g_any_armed.load(std::memory_order_relaxed)) {
    Hit(site);
  }
}

}  // namespace failpoint
}  // namespace astraea

// The one macro production code uses.
#define ASTRAEA_FAILPOINT(site) ::astraea::failpoint::MaybeHit(site)

#endif  // SRC_UTIL_FAILPOINT_H_
