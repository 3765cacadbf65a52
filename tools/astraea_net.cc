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
// Exit code: 0 on success; 1 for a bad command line (an unknown subcommand
// or flag, a flag with no value, a value out of range, a missing --port or
// --forward-port) and, for transfers, when the transfer did not complete or
// any frame arrived corrupt.

#include <cinttypes>
#include <cstdio>
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
      "           [--rpc-timeout DUR] [--rate-mbps R] [--rtt DUR] [--buffer-bytes N] [--loss P]\n"
      "           [--mss N] [--max-runtime DUR] [--ack-every N] [--seed N]\n");
  return 1;
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
  bool no_verify_payload = false;
  cli::FlagSet()
      .Int("--port", 1, 65535, &config.port)
      .Int("--ack-every", 1, 64, &config.ack_every)
      .PositiveDuration("--ack-delay", Seconds(1.0), &config.ack_delay)
      .Duration("--idle-timeout", 0, Seconds(3600.0), &config.idle_timeout)
      .Switch("--no-verify-payload", &no_verify_payload)
      .Parse(argc, argv);
  config.verify_payload = !no_verify_payload;
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
  cli::FlagSet flags;
  flags.String("--host", &config.host)
      .Int("--port", 1, 65535, &config.port)
      .U64("--bytes", &config.total_bytes)
      .String("--scheme", &scheme)
      .Int("--mss", static_cast<int64_t>(net::kDataHeaderBytes) + 1, 65000, &config.mss)
      .PositiveDuration("--mtp", Seconds(10.0), &config.mtp)
      .Duration("--max-runtime", 0, Seconds(3600.0), &config.max_runtime)
      .Int("--flow-id", 0, INT32_MAX, &config.flow_id);
  AddPolicyFlags(&flags, &policy);
  flags.Parse(argc, argv);
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
  cli::FlagSet()
      .Int("--listen-port", 1, 65535, &config.listen_port)
      .String("--forward-host", &config.forward_host)
      .Int("--forward-port", 1, 65535, &config.forward_port)
      .Double("--rate-mbps", 0.0, 1e5, &rate_mbps)
      .Duration("--rtt", 0, Seconds(10.0), &rtt)
      .U64("--buffer-bytes", &config.buffer_bytes)
      .Double("--loss", 0.0, 1.0, &config.random_loss)
      .U64("--seed", &config.seed)
      .Parse(argc, argv);
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
  cli::FlagSet flags;
  flags.U64("--bytes", &config.sender.total_bytes)
      .String("--scheme", &scheme)
      .Double("--rate-mbps", 0.0, 1e5, &rate_mbps)
      .Duration("--rtt", 0, Seconds(10.0), &rtt)
      .U64("--buffer-bytes", &config.emulator.buffer_bytes)
      .Double("--loss", 0.0, 1.0, &config.emulator.random_loss)
      .Int("--mss", static_cast<int64_t>(net::kDataHeaderBytes) + 1, 65000, &config.sender.mss)
      .Duration("--max-runtime", 0, Seconds(3600.0), &config.sender.max_runtime)
      .Int("--ack-every", 1, 64, &config.receiver.ack_every)
      .U64("--seed", &config.emulator.seed);
  AddPolicyFlags(&flags, &policy);
  flags.Parse(argc, argv);
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
  // Each subcommand reads its flags after the subcommand's name.
  const std::string command = argv[1];
  if (command == "recv") {
    return RunRecv(argc - 1, argv + 1);
  }
  if (command == "send") {
    return RunSend(argc - 1, argv + 1);
  }
  if (command == "emulate") {
    return RunEmulate(argc - 1, argv + 1);
  }
  if (command == "loopback") {
    return RunLoopback(argc - 1, argv + 1);
  }
  return Usage();
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
