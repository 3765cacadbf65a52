// astraea_net — the real-packet UDP data plane CLI (DESIGN.md §13).
//
// Subcommands:
//   recv      bind a UDP port and acknowledge incoming data frames
//   send      transfer N bytes to a receiver, cwnd/pacing driven by a
//             congestion controller (any scheme from the comparison set;
//             astraea runs --model / ASTRAEA_MODEL, else the distilled policy,
//             or attaches to a running astraea_serve sidecar via
//             --serve-socket)
//   emulate   stand-alone WAN link emulator (UDP relay: rate, delay,
//             droptail buffer, random loss)
//   loopback  one-process end-to-end run: receiver + optional emulator +
//             sender over 127.0.0.1, with a JSON summary on stdout
//
// Quickstart (two shells, or see `loopback` for one):
//   ./astraea_net recv --port 9000
//   ./astraea_net send --host 127.0.0.1 --port 9000 --bytes 67108864
//
// Exit code: 0 on success; for transfers, nonzero when the transfer did not
// complete or any frame arrived corrupt.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/core/schemes.h"
#include "src/eval/cli_scenario.h"
#include "src/net/loopback.h"
#include "src/net/udp_receiver.h"
#include "src/net/udp_sender.h"
#include "src/util/cli_flags.h"

namespace astraea {
namespace {

using cli::ParseDouble;
using cli::ParseDuration;
using cli::ParseInt;
using cli::ParsePositiveDuration;
using cli::ParseU64;

int Usage() {
  std::fprintf(
      stderr,
      "usage: astraea_net <recv|send|emulate|loopback> [flags]\n"
      "  recv     --port N [--ack-every N] [--ack-delay DUR] [--idle-timeout DUR]\n"
      "           [--no-verify-payload]\n"
      "  send     --host A.B.C.D --port N --bytes N [--scheme NAME] [--model PATH]\n"
      "           [--serve-socket PATH] [--rpc-timeout DUR] [--mss N] [--mtp DUR]\n"
      "           [--max-runtime DUR] [--flow-id N]\n"
      "  emulate  --forward-port N [--listen-port N] [--forward-host A.B.C.D]\n"
      "           [--rate-mbps R] [--rtt DUR] [--buffer-bytes N] [--loss P] [--seed N]\n"
      "  loopback --bytes N [--scheme NAME] [--model PATH] [--serve-socket PATH]\n"
      "           [--rate-mbps R] [--rtt DUR] [--buffer-bytes N] [--loss P]\n"
      "           [--mss N] [--max-runtime DUR] [--ack-every N] [--seed N]\n");
  return 2;
}

// Builds the controller factory for `scheme`. The astraea policy resolves
// through MakeCliPolicy (--model / ASTRAEA_MODEL, else the distilled policy;
// --serve-socket attaches to a sidecar). Real single-flow paths own their RTT
// floor, so the epoch-drain skip on a fresh floor is enabled (see
// AstraeaHyperparameters::skip_drain_on_fresh_floor).
CcFactory MakeCc(const std::string& scheme, const PolicyCliOptions& policy,
                 SchemeOptions* options) {
  options->astraea_policy = MakeCliPolicy(policy);
  options->astraea_hp.skip_drain_on_fresh_floor = true;
  return MakeSchemeFactory(scheme, options);
}

void PrintTransferJson(const net::LoopbackResult& result) {
  const net::UdpSenderReport& s = result.sender;
  const net::UdpReceiverReport& r = result.receiver;
  std::printf("{\n");
  std::printf("  \"completed\": %s,\n", s.completed ? "true" : "false");
  std::printf("  \"fin_acked\": %s,\n", s.fin_acked ? "true" : "false");
  std::printf("  \"elapsed_s\": %.3f,\n", ToSeconds(s.elapsed));
  std::printf("  \"sender\": {\"bytes_sent\": %" PRIu64 ", \"bytes_acked\": %" PRIu64
              ", \"bytes_lost\": %" PRIu64 ", \"goodput_mbps\": %.3f, \"rtt_min_ms\": %.3f, "
              "\"rtt_p50_ms\": %.3f, \"rtt_p95_ms\": %.3f, \"rto_fires\": %" PRIu64
              ", \"corrupt_acks\": %" PRIu64 ", \"mtp_ticks\": %" PRIu64 "},\n",
              s.bytes_sent, s.bytes_acked, s.bytes_lost, s.goodput_bps() / 1e6, s.rtt_min_ms,
              s.rtt_p50_ms, s.rtt_p95_ms, s.rto_fires, s.corrupt_acks, s.mtp_ticks);
  std::printf("  \"receiver\": {\"received_bytes\": %" PRIu64 ", \"received_frames\": %" PRIu64
              ", \"corrupt_frames\": %" PRIu64 ", \"duplicate_frames\": %" PRIu64
              ", \"acks_sent\": %" PRIu64 ", \"goodput_mbps\": %.3f},\n",
              r.received_bytes, r.received_frames, r.corrupt_frames, r.duplicate_frames,
              r.acks_sent, r.goodput_bps() / 1e6);
  std::printf("  \"emulator\": {\"forwarded\": %" PRIu64 ", \"dropped_buffer\": %" PRIu64
              ", \"dropped_random\": %" PRIu64 "}\n",
              result.emulator.forwarded_datagrams, result.emulator.dropped_buffer,
              result.emulator.dropped_random);
  std::printf("}\n");
}

int RunRecv(int argc, char** argv) {
  net::UdpReceiverConfig config;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--no-verify-payload") {
      config.verify_payload = false;
      continue;
    }
    if (value == nullptr) {
      return Usage();
    }
    ++i;
    if (flag == "--port") {
      config.port = static_cast<uint16_t>(ParseInt("--port", value, 1, 65535));
    } else if (flag == "--ack-every") {
      config.ack_every = static_cast<uint32_t>(ParseInt("--ack-every", value, 1, 64));
    } else if (flag == "--ack-delay") {
      config.ack_delay = ParsePositiveDuration("--ack-delay", value, Seconds(1.0));
    } else if (flag == "--idle-timeout") {
      config.idle_timeout = ParseDuration("--idle-timeout", value, 0, Seconds(3600.0));
    } else {
      return Usage();
    }
  }
  net::UdpReceiver receiver(config);
  if (!receiver.Bind()) {
    std::fprintf(stderr, "astraea_net recv: bind failed\n");
    return 1;
  }
  std::fprintf(stderr, "astraea_net recv: listening on UDP port %u\n", receiver.port());
  receiver.Run();
  const net::UdpReceiverReport& r = receiver.report();
  std::printf("{\"received_bytes\": %" PRIu64 ", \"received_frames\": %" PRIu64
              ", \"corrupt_frames\": %" PRIu64 ", \"duplicate_frames\": %" PRIu64
              ", \"acks_sent\": %" PRIu64 ", \"fin_received\": %s, \"goodput_mbps\": %.3f}\n",
              r.received_bytes, r.received_frames, r.corrupt_frames, r.duplicate_frames,
              r.acks_sent, r.fin_received ? "true" : "false", r.goodput_bps() / 1e6);
  return r.corrupt_frames == 0 ? 0 : 1;
}

int RunSend(int argc, char** argv) {
  net::UdpSenderConfig config;
  std::string scheme = "astraea";
  PolicyCliOptions policy;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--host") {
      config.host = value;
    } else if (flag == "--port") {
      config.port = static_cast<uint16_t>(ParseInt("--port", value, 1, 65535));
    } else if (flag == "--bytes") {
      config.total_bytes = ParseU64("--bytes", value);
    } else if (flag == "--scheme") {
      scheme = value;
    } else if (flag == "--model") {
      policy.model = value;
    } else if (flag == "--serve-socket") {
      policy.serve_socket = value;
    } else if (flag == "--rpc-timeout") {
      policy.rpc_timeout = ParsePositiveDuration("--rpc-timeout", value, Seconds(1.0));
    } else if (flag == "--mss") {
      config.mss = static_cast<uint32_t>(
          ParseInt("--mss", value, static_cast<int64_t>(net::kDataHeaderBytes) + 1, 65000));
    } else if (flag == "--mtp") {
      config.mtp = ParsePositiveDuration("--mtp", value, Seconds(10.0));
    } else if (flag == "--max-runtime") {
      config.max_runtime = ParseDuration("--max-runtime", value, 0, Seconds(3600.0));
    } else if (flag == "--flow-id") {
      config.flow_id = static_cast<uint32_t>(ParseInt("--flow-id", value, 0, INT32_MAX));
    } else {
      return Usage();
    }
  }
  if (config.port == 0) {
    return Usage();
  }
  SchemeOptions options;
  CcFactory factory = MakeCc(scheme, policy, &options);
  net::UdpSender sender(factory(), config);
  const bool completed = sender.Run();
  const net::UdpSenderReport& s = sender.report();
  std::printf("{\"completed\": %s, \"fin_acked\": %s, \"elapsed_s\": %.3f, "
              "\"bytes_sent\": %" PRIu64 ", \"bytes_acked\": %" PRIu64 ", \"bytes_lost\": %" PRIu64
              ", \"goodput_mbps\": %.3f, \"rtt_min_ms\": %.3f, \"rtt_p50_ms\": %.3f, "
              "\"rtt_p95_ms\": %.3f, \"rto_fires\": %" PRIu64 ", \"corrupt_acks\": %" PRIu64 "}\n",
              s.completed ? "true" : "false", s.fin_acked ? "true" : "false",
              ToSeconds(s.elapsed), s.bytes_sent, s.bytes_acked, s.bytes_lost,
              s.goodput_bps() / 1e6, s.rtt_min_ms, s.rtt_p50_ms, s.rtt_p95_ms, s.rto_fires,
              s.corrupt_acks);
  return completed ? 0 : 1;
}

int RunEmulate(int argc, char** argv) {
  net::LinkEmulatorConfig config;
  double rate_mbps = 0.0;
  TimeNs rtt = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--listen-port") {
      config.listen_port = static_cast<uint16_t>(ParseInt("--listen-port", value, 1, 65535));
    } else if (flag == "--forward-host") {
      config.forward_host = value;
    } else if (flag == "--forward-port") {
      config.forward_port = static_cast<uint16_t>(ParseInt("--forward-port", value, 1, 65535));
    } else if (flag == "--rate-mbps") {
      rate_mbps = ParseDouble("--rate-mbps", value, 0.0, 1e5);
    } else if (flag == "--rtt") {
      rtt = ParseDuration("--rtt", value, 0, Seconds(10.0));
    } else if (flag == "--buffer-bytes") {
      config.buffer_bytes = ParseU64("--buffer-bytes", value);
    } else if (flag == "--loss") {
      config.random_loss = ParseDouble("--loss", value, 0.0, 1.0);
    } else if (flag == "--seed") {
      config.seed = ParseU64("--seed", value);
    } else {
      return Usage();
    }
  }
  if (config.forward_port == 0) {
    return Usage();
  }
  config.rate = Mbps(rate_mbps);
  config.one_way_delay = rtt / 2;
  net::LinkEmulator emulator(config);
  if (!emulator.Start()) {
    std::fprintf(stderr, "astraea_net emulate: start failed\n");
    return 1;
  }
  std::fprintf(stderr, "astraea_net emulate: relaying UDP port %u -> %s:%u (Ctrl-C to stop)\n",
               emulator.port(), config.forward_host.c_str(), config.forward_port);
  ::pause();
  emulator.Stop();
  return 0;
}

int RunLoopback(int argc, char** argv) {
  net::LoopbackConfig config;
  config.sender.total_bytes = 8 << 20;
  std::string scheme = "astraea";
  PolicyCliOptions policy;
  double rate_mbps = 0.0;
  TimeNs rtt = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--bytes") {
      config.sender.total_bytes = ParseU64("--bytes", value);
    } else if (flag == "--scheme") {
      scheme = value;
    } else if (flag == "--model") {
      policy.model = value;
    } else if (flag == "--serve-socket") {
      policy.serve_socket = value;
    } else if (flag == "--rpc-timeout") {
      policy.rpc_timeout = ParsePositiveDuration("--rpc-timeout", value, Seconds(1.0));
    } else if (flag == "--rate-mbps") {
      rate_mbps = ParseDouble("--rate-mbps", value, 0.0, 1e5);
    } else if (flag == "--rtt") {
      rtt = ParseDuration("--rtt", value, 0, Seconds(10.0));
    } else if (flag == "--buffer-bytes") {
      config.emulator.buffer_bytes = ParseU64("--buffer-bytes", value);
    } else if (flag == "--loss") {
      config.emulator.random_loss = ParseDouble("--loss", value, 0.0, 1.0);
    } else if (flag == "--mss") {
      config.sender.mss = static_cast<uint32_t>(
          ParseInt("--mss", value, static_cast<int64_t>(net::kDataHeaderBytes) + 1, 65000));
    } else if (flag == "--max-runtime") {
      config.sender.max_runtime = ParseDuration("--max-runtime", value, 0, Seconds(3600.0));
    } else if (flag == "--ack-every") {
      config.receiver.ack_every = static_cast<uint32_t>(ParseInt("--ack-every", value, 1, 64));
    } else if (flag == "--seed") {
      config.emulator.seed = ParseU64("--seed", value);
    } else {
      return Usage();
    }
  }
  config.shaped = rate_mbps > 0.0 || rtt > 0 || config.emulator.random_loss > 0.0 ||
                  config.emulator.buffer_bytes > 0;
  config.emulator.rate = Mbps(rate_mbps);
  config.emulator.one_way_delay = rtt / 2;
  SchemeOptions options;
  CcFactory factory = MakeCc(scheme, policy, &options);
  config.make_cc = [&factory] { return factory(); };

  const net::LoopbackResult result = net::RunLoopbackTransfer(config);
  if (!result.ok) {
    std::fprintf(stderr, "astraea_net loopback: %s\n", result.error.c_str());
    return 1;
  }
  PrintTransferJson(result);
  const bool clean = result.sender.completed && result.receiver.corrupt_frames == 0;
  return clean ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "recv") {
    return RunRecv(argc, argv);
  }
  if (command == "send") {
    return RunSend(argc, argv);
  }
  if (command == "emulate") {
    return RunEmulate(argc, argv);
  }
  if (command == "loopback") {
    return RunLoopback(argc, argv);
  }
  return Usage();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
