// run_scenario: quick CLI to exercise any scheme combination on a dumbbell.
//
//   run_scenario --scheme astraea --flows 3 --bw 100 --rtt 30 --buffer 1
//                --interval 40 --duration 120 --until 200 [--timeline]
//                [--qdisc droptail|red|codel] [--trace file.mahimahi]
//                [--trace-out run.trace] [--trace-format binary|jsonl]
//                [--metrics-out metrics.json] [--model ckpt]
//                [--serve-socket /tmp/astraea.sock] [--rpc-timeout 20ms]
//                [--connect-timeout 500ms]
//
// Prints per-flow mean throughputs, the average Jain index, utilization and
// latency, optionally with a 1-second throughput timeline.
//
// --serve-socket routes every Astraea policy decision to an out-of-process
// `astraea_serve` over shared-memory IPC instead of in-process inference;
// requests that exceed --rpc-timeout (and all requests once the server dies)
// degrade gracefully to the local fallback policy, counted in the
// serve.fallback_total metric.
//
// --trace-out records every packet event (enqueue/dequeue/drop/send/ack/loss/
// rto/cwnd/action) to a file — binary by default (convert with trace_dump),
// JSONL with --trace-format jsonl. Tracing never perturbs the simulation: a
// traced run produces bit-identical results to an untraced one.
//
// A --trace-out, --csv or --metrics-out file that cannot be written ends the
// run with exit 1 and `cannot write <path>` on stderr.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/eval/cli_scenario.h"
#include "src/eval/scenario.h"
#include "src/eval/table.h"
#include "src/eval/window_metrics.h"
#include "src/sim/trace.h"
#include "src/util/cli_flags.h"
#include "src/util/metrics.h"

namespace astraea {
namespace {

struct Args {
  std::string scheme = "astraea";
  int flows = 2;
  ScenarioCliOptions dumbbell;
  PolicyCliOptions policy;
  double interval_s = 0.0;  // stagger between flow starts
  double duration_s = -1.0;
  double until_s = 60.0;
  bool timeline = false;
  std::string csv_out;
  std::string trace_out;
  std::string trace_format = "binary";
  std::string metrics_out;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scheme") == 0) {
      a.scheme = next("--scheme");
    } else if (std::strcmp(argv[i], "--flows") == 0) {
      a.flows = static_cast<int>(cli::ParseInt("--flows", next("--flows"), 1, 10000));
    } else if (std::strcmp(argv[i], "--bw") == 0) {
      a.dumbbell.bw_mbps = cli::ParseDouble("--bw", next("--bw"), 0.001, 1e6);
    } else if (std::strcmp(argv[i], "--rtt") == 0) {
      a.dumbbell.rtt_ms = cli::ParseDouble("--rtt", next("--rtt"), 0.01, 60000.0);
    } else if (std::strcmp(argv[i], "--buffer") == 0) {
      a.dumbbell.buffer_bdp = cli::ParseDouble("--buffer", next("--buffer"), 0.001, 10000.0);
    } else if (std::strcmp(argv[i], "--loss") == 0) {
      a.dumbbell.loss = cli::ParseDouble("--loss", next("--loss"), 0.0, 1.0);
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      a.interval_s = cli::ParseDouble("--interval", next("--interval"), 0.0, 1e6);
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      a.duration_s = cli::ParseDouble("--duration", next("--duration"), -1.0, 1e6);
    } else if (std::strcmp(argv[i], "--until") == 0) {
      a.until_s = cli::ParseDouble("--until", next("--until"), 0.1, 1e6);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      a.dumbbell.seed = cli::ParseU64("--seed", next("--seed"));
    } else if (std::strcmp(argv[i], "--qdisc") == 0) {
      a.dumbbell.qdisc = next("--qdisc");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      a.dumbbell.trace_file = next("--trace");
    } else if (std::strcmp(argv[i], "--model") == 0) {
      a.policy.model = next("--model");
    } else if (std::strcmp(argv[i], "--serve-socket") == 0) {
      a.policy.serve_socket = next("--serve-socket");
    } else if (std::strcmp(argv[i], "--rpc-timeout") == 0) {
      a.policy.rpc_timeout =
          cli::ParsePositiveDuration("--rpc-timeout", next("--rpc-timeout"), Seconds(60.0));
    } else if (std::strcmp(argv[i], "--connect-timeout") == 0) {
      a.policy.connect_timeout =
          cli::ParsePositiveDuration("--connect-timeout", next("--connect-timeout"), Seconds(60.0));
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      a.csv_out = next("--csv");
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      a.trace_out = next("--trace-out");
    } else if (std::strcmp(argv[i], "--trace-format") == 0) {
      a.trace_format = next("--trace-format");
      if (a.trace_format != "binary" && a.trace_format != "jsonl") {
        std::fprintf(stderr, "--trace-format must be binary or jsonl\n");
        std::exit(1);
      }
    } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
      a.metrics_out = next("--metrics-out");
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      a.timeline = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(1);
    }
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);

  DumbbellScenario scenario(BuildDumbbellConfig(args.dumbbell));
  scenario.scheme_options().astraea_policy = MakeCliPolicy(args.policy);

  for (int i = 0; i < args.flows; ++i) {
    const TimeNs start = Seconds(args.interval_s * i);
    const TimeNs duration = args.duration_s > 0 ? Seconds(args.duration_s) : -1;
    scenario.AddFlow(args.scheme, start, duration);
  }
  std::unique_ptr<Tracer> tracer;
  if (!args.trace_out.empty()) {
    try {
      tracer = std::make_unique<Tracer>(
          args.trace_out,
          args.trace_format == "jsonl" ? Tracer::Format::kJsonl : Tracer::Format::kBinary);
    } catch (const std::runtime_error&) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    scenario.network().SetTracer(tracer.get());
  }

  const TimeNs until = Seconds(args.until_s);
  scenario.Run(until);
  if (tracer != nullptr) {
    if (!tracer->Close()) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("%llu events traced to %s\n",
                static_cast<unsigned long long>(tracer->recorded()), args.trace_out.c_str());
  }

  const Network& net = scenario.network();
  if (args.timeline) {
    std::printf("time(s)");
    for (size_t i = 0; i < net.flow_count(); ++i) {
      std::printf("  f%zu(Mbps)", i);
    }
    std::printf("  rtt0(ms)\n");
    for (TimeNs t = 0; t + Seconds(1.0) <= until; t += Seconds(1.0)) {
      std::printf("%6.0f ", ToSeconds(t));
      for (size_t i = 0; i < net.flow_count(); ++i) {
        std::printf("  %8.2f",
                    net.flow_stats(static_cast<int>(i)).throughput_mbps.MeanOver(t, t + Seconds(1.0)));
      }
      std::printf("  %7.1f\n", net.flow_stats(0).rtt_ms.MeanOver(t, t + Seconds(1.0)));
    }
  }

  ConsoleTable table({"flow", "scheme", "mean thr (Mbps)", "mean rtt (ms)", "lost (MB)"});
  for (size_t i = 0; i < net.flow_count(); ++i) {
    const int id = static_cast<int>(i);
    const FlowStats& stats = net.flow_stats(id);
    table.AddRow({std::to_string(i), net.flow_spec(id).scheme,
                  ConsoleTable::Num(stats.throughput_mbps.MeanOver(0, until)),
                  ConsoleTable::Num(stats.rtt_ms.MeanOver(0, until), 1),
                  ConsoleTable::Num(static_cast<double>(stats.bytes_lost) / 1e6, 3)});
  }
  table.Print();
  if (!args.csv_out.empty()) {
    if (!cli::WriteOutputFile(args.csv_out, FlowStatsCsv(net))) {
      return 1;
    }
    std::printf("per-MTP series written to %s\n", args.csv_out.c_str());
  }
  std::printf("avg Jain: %.4f   utilization: %.3f   mean RTT: %.1f ms   loss: %.4f%%\n",
              AverageJain(net, 0, until, Milliseconds(500)), LinkUtilization(net, 0, 0, until),
              MeanRttMs(net, 0, until), 100.0 * AggregateLossRatio(net));
  if (!args.metrics_out.empty()) {
    if (!cli::WriteOutputFile(args.metrics_out, MetricsRegistry::Global().ToJson() + "\n")) {
      return 1;
    }
    std::printf("metrics registry written to %s\n", args.metrics_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
