// trace_dump: convert a binary simulator trace (run_scenario --trace-out) to
// per-flow CSV for plotting.
//
//   trace_dump run.trace                      # all flows to stdout
//   trace_dump run.trace --flow 2             # one flow only
//   trace_dump run.trace --out-prefix flows_  # flows_0.csv, flows_1.csv, ...
//
// Columns: time_s,event,flow,link,seq,a,b — the a/b meanings per event type
// are documented in src/sim/trace.h. Events with no flow attribution
// (flow_id = -1) appear only in the stdout/all-flows output.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/sim/trace.h"
#include "src/util/cli_flags.h"

namespace astraea {
namespace {

void WriteCsvHeader(std::FILE* f) {
  std::fprintf(f, "time_s,event,flow,link,seq,a,b\n");
}

void WriteCsvRow(std::FILE* f, const TraceEvent& ev) {
  std::fprintf(f, "%.9f,%s,%d,%d,%llu,%.17g,%.17g\n", ToSeconds(ev.time),
               TraceEventTypeName(ev.type), ev.flow_id, ev.link_id,
               static_cast<unsigned long long>(ev.seq), ev.a, ev.b);
}

int Main(int argc, char** argv) {
  std::string in_path;
  std::string out_prefix;
  int only_flow = INT32_MIN;

  cli::FlagSet()
      .Int("--flow", -1, 1'000'000, &only_flow)
      .String("--out-prefix", &out_prefix)
      .Positional(&in_path)
      .Parse(argc, argv);
  if (in_path.empty()) {
    std::fprintf(stderr,
                 "usage: trace_dump <trace-file> [--flow N] [--out-prefix PREFIX]\n");
    return 1;
  }

  std::vector<TraceEvent> events;
  try {
    events = ReadBinaryTrace(in_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot read %s: %s\n", in_path.c_str(), e.what());
    return 1;
  }

  if (out_prefix.empty()) {
    // Single stream to stdout (optionally filtered by --flow).
    WriteCsvHeader(stdout);
    for (const TraceEvent& ev : events) {
      if (only_flow != INT32_MIN && ev.flow_id != only_flow) {
        continue;
      }
      WriteCsvRow(stdout, ev);
    }
    return 0;
  }

  // One CSV per flow. Events are time-ordered in the trace, so each per-flow
  // file is time-ordered too.
  std::map<int32_t, std::FILE*> files;
  for (const TraceEvent& ev : events) {
    if (ev.flow_id < 0 || (only_flow != INT32_MIN && ev.flow_id != only_flow)) {
      continue;
    }
    auto it = files.find(ev.flow_id);
    if (it == files.end()) {
      const std::string path = out_prefix + std::to_string(ev.flow_id) + ".csv";
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
      }
      WriteCsvHeader(f);
      it = files.emplace(ev.flow_id, f).first;
    }
    WriteCsvRow(it->second, ev);
  }
  for (auto& [flow, f] : files) {
    std::fclose(f);
    std::printf("flow %d -> %s%d.csv\n", flow, out_prefix.c_str(), flow);
  }
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
