// golden_trace: differential regression harness for the simulator.
//
//   golden_trace --check [--dir tests/goldens] [--scheme s] [--scenario s]
//   golden_trace --bless [--dir tests/goldens] [--scheme s] [--scenario s]
//   golden_trace --list
//
// Runs every congestion controller on a small canonical scenario set and
// serializes the full per-event trace (send/ack/loss/rto/cwnd plus every
// queue transition) through the binary Tracer. --check compares each run
// bit-exactly against the checked-in golden under tests/goldens/ and fails
// loudly on any divergence; --bless regenerates the goldens and always
// prints a diff summary (first divergence, per-event-type counts) so a
// blessing commit documents exactly what changed and why.
//
// Determinism contract: scenarios pin the RNG seed and pin Astraea's policy
// explicitly — never an ASTRAEA_MODEL env lookup. `astraea` runs the in-repo
// DistilledPolicy, so its goldens depend only on the simulator + controller
// code. `astraea_mlp` runs the committed checkpoint
// models/astraea_policy_trained.ckpt through MlpPolicy, so its goldens also
// pin the MLP inference kernels; a run that cannot load the checkpoint is
// fatal (never a fallback), and committing a new checkpoint needs a re-bless
// of the astraea_mlp goldens. Traces are recorded into the in-memory ring
// (Format::kNone) and written out afterwards, which also keeps --check
// allocation-free in the hot loop. Goldens are bit-exact per
// platform/compiler; regenerate with --bless when a change intentionally
// alters dynamics (see DESIGN.md §10).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/eval/cli_scenario.h"
#include "src/eval/scenario.h"
#include "src/eval/scenario_universe.h"
#include "src/sim/trace.h"
#include "src/util/cli_flags.h"

#ifndef ASTRAEA_SOURCE_DIR
#define ASTRAEA_SOURCE_DIR "."
#endif

namespace astraea {
namespace {

// The paper's comparison set (schemes.h) minus orca, plus `astraea_mlp`: the
// Astraea controller on the committed trained checkpoint instead of the
// distilled policy.
constexpr const char* kSchemes[] = {"newreno", "cubic", "vegas", "bbr",     "copa",
                                    "vivace",  "aurora", "remy", "astraea", "astraea_mlp"};
constexpr const char* kMlpScheme = "astraea_mlp";

// Canonical scenario set: small (single-digit Mbps, a few seconds at most) so
// the whole golden corpus stays near 3.5 MB, but covering the qualitatively
// distinct regimes: a clean dumbbell, heavy iid wire loss and a two-flow RED
// bottleneck (AQM + flow interaction). On the sub-second runs the trained
// checkpoint's decisions sit at -1, so `long2` runs it alone for 3 s with a
// second arrival, where most of its actions fall inside (-1, 1) and the
// golden pins the MLP kernels' arithmetic, not only the tanh saturation.
struct GoldenScenario {
  const char* name;
  double bw_mbps;
  double rtt_ms;
  double buffer_bdp;
  double loss;
  const char* qdisc;
  int flows;
  double second_flow_start_s;  // ignored when flows == 1
  double until_s;
  const char* only_scheme = nullptr;  // nullptr: every scheme in kSchemes
};

constexpr GoldenScenario kScenarios[] = {
    {"clean", 2.0, 20.0, 1.0, 0.0, "droptail", 1, 0.0, 0.8},
    {"lossy", 2.0, 20.0, 1.0, 0.02, "droptail", 1, 0.0, 0.8},
    {"red2", 2.0, 30.0, 2.0, 0.0, "red", 2, 0.3, 0.8},
    {"long2", 2.0, 40.0, 1.0, 0.0, "droptail", 2, 0.5, 3.0, kMlpScheme},
};

std::shared_ptr<const Policy> TrainedPolicy() {
  const std::string path = std::string(ASTRAEA_SOURCE_DIR) + "/models/astraea_policy_trained.ckpt";
  try {
    return MlpPolicy::LoadFromFile(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FATAL: %s needs %s: %s\n", kMlpScheme, path.c_str(), e.what());
    std::exit(2);
  }
}

// Universe scenario set (DESIGN.md §15.4): one golden per family, each with a
// small per-family scheme subset (ECN-capable DCTCP only makes sense on the
// incast bottleneck; the others use the paper's main comparands). The configs
// are deliberately tiny versions of the bench defaults so the corpus stays
// small, but exercise the same code paths: marking queue, trace replay,
// Pareto churn + UDP blasts.
struct UniverseGoldenScenario {
  const char* name;
  UniverseFamily family;
  const char* schemes[3];
};

constexpr UniverseGoldenScenario kUniverseScenarios[] = {
    {"incast", UniverseFamily::kIncast, {"cubic", "dctcp", "astraea"}},
    {"tracecell", UniverseFamily::kTraceDriven, {"cubic", "bbr", "astraea"}},
    {"adv", UniverseFamily::kAdversarial, {"cubic", "bbr", "astraea"}},
};

std::vector<TraceEvent> CaptureTrace(DumbbellScenario& scenario, TimeNs until, const char* tag) {
  Tracer tracer("", Tracer::Format::kNone, 1 << 20);
  scenario.network().SetTracer(&tracer);
  scenario.Run(until);
  if (tracer.recorded() > (1u << 20)) {
    std::fprintf(stderr, "FATAL: %s overflowed the trace ring (%llu events)\n", tag,
                 static_cast<unsigned long long>(tracer.recorded()));
    std::exit(2);
  }
  return tracer.BufferedEvents();
}

std::vector<TraceEvent> RunUniverseGolden(const UniverseGoldenScenario& sc,
                                          const std::string& scheme,
                                          const std::string& traces_dir) {
  SchemeOptions pinned;
  pinned.astraea_policy = std::make_shared<DistilledPolicy>();
  switch (sc.family) {
    case UniverseFamily::kIncast: {
      IncastConfig config;
      config.fan_in = 8;
      config.waves = 1;
      config.request_bytes = 32 * 1024;
      config.scheme = scheme;
      config.ecn = true;
      config.seed = 1;
      auto scenario = BuildIncast(config, &pinned);
      return CaptureTrace(*scenario, IncastHorizon(config), sc.name);
    }
    case UniverseFamily::kTraceDriven: {
      TraceDrivenConfig config;
      config.trace_path = traces_dir + "/cellular.trace";
      config.scheme = scheme;
      config.duration = Seconds(1.0);
      config.seed = 1;
      auto scenario = BuildTraceDriven(config, &pinned);
      return CaptureTrace(*scenario, config.duration, sc.name);
    }
    case UniverseFamily::kAdversarial: {
      AdversarialConfig config;
      config.bandwidth = Mbps(20);
      config.scheme = scheme;
      config.duration = Seconds(2.0);
      config.blast_period = Seconds(1.0);
      config.blast_on = Milliseconds(300);
      config.seed = 1;
      auto scenario = BuildAdversarial(config, &pinned);
      return CaptureTrace(*scenario, config.duration + Milliseconds(50), sc.name);
    }
  }
  std::fprintf(stderr, "unreachable universe family\n");
  std::exit(2);
}

std::vector<TraceEvent> RunGolden(const GoldenScenario& sc, const std::string& scheme) {
  ScenarioCliOptions opts;
  opts.bw_mbps = sc.bw_mbps;
  opts.rtt_ms = sc.rtt_ms;
  opts.buffer_bdp = sc.buffer_bdp;
  opts.loss = sc.loss;
  opts.qdisc = sc.qdisc;
  opts.seed = 1;
  DumbbellScenario scenario(BuildDumbbellConfig(opts));
  // Pin the policy: goldens must not depend on ASTRAEA_MODEL or checkpoint
  // files lying around.
  const bool mlp = scheme == kMlpScheme;
  scenario.scheme_options().astraea_policy =
      mlp ? TrainedPolicy() : std::make_shared<DistilledPolicy>();
  const std::string controller = mlp ? "astraea" : scheme;

  scenario.AddFlow(controller, 0);
  if (sc.flows > 1) {
    scenario.AddFlow(controller, Seconds(sc.second_flow_start_s));
  }
  const std::string tag = std::string(sc.name) + "/" + scheme;
  return CaptureTrace(scenario, Seconds(sc.until_s), tag.c_str());
}

std::string GoldenPath(const std::string& dir, const GoldenScenario& sc,
                       const std::string& scheme) {
  return dir + "/" + sc.name + "__" + scheme + ".trace";
}

bool SameEvent(const TraceEvent& x, const TraceEvent& y) {
  return x.time == y.time && x.type == y.type && x.flow_id == y.flow_id &&
         x.link_id == y.link_id && x.seq == y.seq && x.a == y.a && x.b == y.b;
}

std::map<std::string, size_t> CountByType(const std::vector<TraceEvent>& events) {
  std::map<std::string, size_t> counts;
  for (const TraceEvent& ev : events) {
    ++counts[TraceEventTypeName(ev.type)];
  }
  return counts;
}

// Prints the mandatory divergence summary: sizes, first diverging record and
// the per-type count delta. Returns true if the traces are identical.
bool DiffSummary(const char* tag, const std::vector<TraceEvent>& golden,
                 const std::vector<TraceEvent>& fresh) {
  size_t first = 0;
  const size_t common = std::min(golden.size(), fresh.size());
  while (first < common && SameEvent(golden[first], fresh[first])) {
    ++first;
  }
  if (first == common && golden.size() == fresh.size()) {
    return true;
  }
  std::printf("  %s: %zu -> %zu events, first divergence at record %zu\n", tag, golden.size(),
              fresh.size(), first);
  auto show = [&](const char* side, const std::vector<TraceEvent>& events) {
    if (first >= events.size()) {
      std::printf("    %-6s <no record (trace ended)>\n", side);
      return;
    }
    const TraceEvent& ev = events[first];
    std::printf("    %-6s t=%.6fs %-7s flow=%d link=%d seq=%llu a=%g b=%g\n", side,
                ToSeconds(ev.time), TraceEventTypeName(ev.type), ev.flow_id, ev.link_id,
                static_cast<unsigned long long>(ev.seq), ev.a, ev.b);
  };
  show("golden", golden);
  show("fresh", fresh);
  const auto gold_counts = CountByType(golden);
  const auto fresh_counts = CountByType(fresh);
  std::map<std::string, size_t> keys_union = gold_counts;
  keys_union.insert(fresh_counts.begin(), fresh_counts.end());
  for (const auto& [type, _] : keys_union) {
    const size_t g = gold_counts.count(type) ? gold_counts.at(type) : 0;
    const size_t f = fresh_counts.count(type) ? fresh_counts.at(type) : 0;
    if (g != f) {
      std::printf("    %-7s %zu -> %zu\n", type.c_str(), g, f);
    }
  }
  return false;
}

void WriteGolden(const std::string& path, const std::vector<TraceEvent>& events) {
  Tracer out(path, Tracer::Format::kBinary);
  for (const TraceEvent& ev : events) {
    out.Record(ev.time, ev.type, ev.flow_id, ev.link_id, ev.seq, ev.a, ev.b);
  }
  out.Close();
}

struct Args {
  bool check = false;
  bool bless = false;
  bool list = false;
  std::string dir = "tests/goldens";
  std::string traces = std::string(ASTRAEA_SOURCE_DIR) + "/traces";
  std::string scheme;    // empty = all
  std::string scenario;  // empty = all
};

Args Parse(int argc, char** argv) {
  Args a;
  cli::FlagSet()
      .Switch("--check", &a.check)
      .Switch("--bless", &a.bless)
      .Switch("--list", &a.list)
      .String("--dir", &a.dir)
      .String("--traces", &a.traces)
      .String("--scheme", &a.scheme)
      .String("--scenario", &a.scenario)
      .Parse(argc, argv);
  if (a.check + a.bless + a.list != 1) {
    std::fprintf(stderr, "exactly one of --check, --bless, --list is required\n");
    std::exit(1);
  }
  return a;
}

// Shared check/bless logic for one (scenario, scheme) cell. Returns false on
// a --check mismatch.
bool ProcessGolden(const Args& args, const std::string& tag, const std::string& path,
                   const std::vector<TraceEvent>& fresh) {
  std::vector<TraceEvent> golden;
  bool have_golden = false;
  try {
    golden = ReadBinaryTrace(path);
    have_golden = true;
  } catch (const std::exception& e) {
    if (args.check) {
      std::printf("FAIL %-18s cannot read golden %s: %s\n", tag.c_str(), path.c_str(), e.what());
      return false;
    }
  }

  if (args.check) {
    const bool ok = DiffSummary(tag.c_str(), golden, fresh);
    std::printf("%s %s (%zu events)\n", ok ? "OK  " : "FAIL", tag.c_str(), fresh.size());
    return ok;
  }
  // bless
  if (have_golden && DiffSummary(tag.c_str(), golden, fresh)) {
    std::printf("KEEP %s (unchanged, %zu events)\n", tag.c_str(), fresh.size());
  } else {
    WriteGolden(path, fresh);
    std::printf("%s %s (%zu events) -> %s\n", have_golden ? "REGEN" : "NEW  ", tag.c_str(),
                fresh.size(), path.c_str());
  }
  return true;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.list) {
    std::printf("scenarios:");
    for (const GoldenScenario& sc : kScenarios) {
      std::printf(" %s", sc.name);
    }
    for (const UniverseGoldenScenario& sc : kUniverseScenarios) {
      std::printf(" %s", sc.name);
    }
    std::printf("\nschemes:  ");
    for (const char* s : kSchemes) {
      std::printf(" %s", s);
    }
    std::printf(" (universe scenarios use per-family subsets, incl. dctcp)\n");
    return 0;
  }

  int failures = 0;
  int ran = 0;
  for (const GoldenScenario& sc : kScenarios) {
    if (!args.scenario.empty() && args.scenario != sc.name) {
      continue;
    }
    for (const char* scheme : kSchemes) {
      if ((!args.scheme.empty() && args.scheme != scheme) ||
          (sc.only_scheme != nullptr && std::strcmp(sc.only_scheme, scheme) != 0)) {
        continue;
      }
      ++ran;
      const std::string path = GoldenPath(args.dir, sc, scheme);
      const std::vector<TraceEvent> fresh = RunGolden(sc, scheme);
      const std::string tag = std::string(sc.name) + "/" + scheme;
      if (!ProcessGolden(args, tag, path, fresh)) {
        ++failures;
      }
    }
  }
  for (const UniverseGoldenScenario& sc : kUniverseScenarios) {
    if (!args.scenario.empty() && args.scenario != sc.name) {
      continue;
    }
    for (const char* scheme : sc.schemes) {
      if (!args.scheme.empty() && args.scheme != scheme) {
        continue;
      }
      ++ran;
      const std::string path = args.dir + "/" + sc.name + "__" + scheme + ".trace";
      const std::vector<TraceEvent> fresh = RunUniverseGolden(sc, scheme, args.traces);
      const std::string tag = std::string(sc.name) + "/" + scheme;
      if (!ProcessGolden(args, tag, path, fresh)) {
        ++failures;
      }
    }
  }
  if (ran == 0) {
    std::fprintf(stderr, "no scenario/scheme matched the filters\n");
    return 1;
  }
  if (args.check) {
    std::printf("%d/%d golden traces match\n", ran - failures, ran);
    return failures == 0 ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
