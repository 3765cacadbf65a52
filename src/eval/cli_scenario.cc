#include "src/eval/cli_scenario.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/serve/remote_policy.h"
#include "src/util/serialization.h"

namespace astraea {

DumbbellConfig BuildDumbbellConfig(const ScenarioCliOptions& opts) {
  DumbbellConfig config;
  config.bandwidth = Mbps(opts.bw_mbps);
  config.base_rtt = std::llround(opts.rtt_ms * static_cast<double>(kNanosPerMilli));
  config.buffer_bdp = opts.buffer_bdp;
  config.random_loss = opts.loss;
  config.seed = opts.seed;
  if (!opts.trace_file.empty()) {
    config.trace = std::make_shared<RateTrace>(LoadMahimahiTrace(opts.trace_file));
    config.bandwidth = config.trace->RateAt(0);
  }
  for (const Qdisc qdisc : {Qdisc::kDropTail, Qdisc::kRed, Qdisc::kCoDel}) {
    if (opts.qdisc == QdiscName(qdisc)) {
      config.queue_factory = MakeQueueFactory(
          qdisc, BdpBufferBytes(config.bandwidth, config.base_rtt, config.buffer_bdp));
      return config;
    }
  }
  std::fprintf(stderr, "unknown qdisc: %s\n", opts.qdisc.c_str());
  std::exit(1);
}

void AddPolicyFlags(cli::FlagSet* flags, PolicyCliOptions* opts) {
  flags->String("--model", &opts->model)
      .String("--serve-socket", &opts->serve_socket)
      .PositiveDuration("--rpc-timeout", Seconds(60.0), &opts->rpc_timeout);
}

std::shared_ptr<const Policy> MakeCliPolicy(const PolicyCliOptions& opts) {
  std::shared_ptr<const Policy> local;
  try {
    local = LoadDefaultPolicy(opts.model);
  } catch (const SerializationError& e) {
    std::fprintf(stderr, "cannot load Astraea policy: %s\n", e.what());
    std::exit(1);
  }
  if (opts.serve_socket.empty()) {
    return local;
  }
  return serve::MakeServedPolicy(opts.serve_socket, opts.rpc_timeout, std::move(local));
}

}  // namespace astraea
