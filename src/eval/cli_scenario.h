// Scenario- and policy-construction helpers shared by the CLI tools
// (run_scenario, astraea_eval, golden_trace, astraea_net). Previously each
// tool hand-rolled its own DumbbellConfig assembly (AQM factory, buffer
// sizing, trace loading) and its own policy resolution; centralizing both
// here means a new capability — like serving inference from an
// out-of-process `astraea_serve` via --serve-socket — lands in every tool at
// once.
//
// These helpers follow the cli_flags.h contract: invalid user input prints
// one clear line and exits. CLI-only by design.

#ifndef SRC_EVAL_CLI_SCENARIO_H_
#define SRC_EVAL_CLI_SCENARIO_H_

#include <memory>
#include <string>

#include "src/core/policy.h"
#include "src/eval/scenario.h"
#include "src/util/time.h"

namespace astraea {

// Dumbbell parameters as tools accept them on the command line.
struct ScenarioCliOptions {
  double bw_mbps = 100.0;
  double rtt_ms = 30.0;
  double buffer_bdp = 1.0;
  double loss = 0.0;
  uint64_t seed = 1;
  std::string qdisc = "droptail";  // droptail | red | codel
  std::string trace_file;          // mahimahi trace; replaces bw_mbps
};

// Builds the DumbbellConfig: the RTT rounded to the nearest nanosecond, the
// trace loaded (its first slot is then the bandwidth that sizes the buffer)
// and the AQM queue factory holding DumbbellScenario::BufferBytes(). Exits
// with a CLI error on an unknown qdisc name.
DumbbellConfig BuildDumbbellConfig(const ScenarioCliOptions& opts);

// Astraea policy selection as tools accept it on the command line.
struct PolicyCliOptions {
  std::string model;         // checkpoint path; "" = ASTRAEA_MODEL, else distilled
  std::string serve_socket;  // when set, serve decisions from astraea_serve
  TimeNs rpc_timeout = Milliseconds(20);
  TimeNs connect_timeout = Milliseconds(500);  // handshake/reconnect-probe bound
};

// Resolves the policy: LoadDefaultPolicy(model) locally; with --serve-socket,
// a self-healing RemotePolicy against the server with that local policy as
// its degradation fallback. A checkpoint that does not load prints one line
// naming it and exits 1; an unreachable server degrades to pure fallback
// with a warning and re-attaches when one appears.
std::shared_ptr<const Policy> MakeCliPolicy(const PolicyCliOptions& opts);

}  // namespace astraea

#endif  // SRC_EVAL_CLI_SCENARIO_H_
