// astraea_serve: the inference server of paper §4, and the repo's one
// batcher. Senders — run_scenario / astraea_eval / astraea_net with
// --serve-socket, or the Fig. 16 serving benchmark — connect over a
// unix-domain control socket and exchange decisions through shared-memory
// ring pairs; the server batches requests across all clients into single
// forward passes and sheds requests it cannot serve before their deadline
// (admission control, DESIGN.md §12).
//
//   astraea_serve --socket /tmp/astraea.sock --model models/policy.ckpt
//                 [--batch-window 500us] [--max-batch 64] [--shed-margin 1.0]
//                 [--metrics-out serve_metrics.json]
//                 [--supervise] [--max-restarts N]
//                 [--chaos "2s@serve.flush.mid_batch=1;8s@-"]
//
// --supervise forks the serving loop into a child and restarts it whenever it
// dies abnormally, with a jittered crash-loop backoff (--max-restarts bounds
// the budget; default unlimited). --chaos arms a deterministic failpoint
// timeline (src/util/chaos.h format) inside the serving process — under
// supervision, a restarted child resumes the timeline where the crash left
// it instead of replaying from zero.
//
// Signals:
//   SIGHUP          hot-reload the model between batches (forwarded to the
//                   child when supervising). Combined with an atomic symlink
//                   swap of --model, this upgrades the served policy with
//                   zero dropped requests.
//   SIGINT/SIGTERM  graceful shutdown (writes --metrics-out if given).
//
// The model file is an actor file as astraea_train --out writes it (one
// Mlp::Save stream, read by LoadActorFile).

#include <signal.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/serve/inference_server.h"
#include "src/serve/supervisor.h"
#include "src/util/chaos.h"
#include "src/util/cli_flags.h"
#include "src/util/metrics.h"
#include "src/util/time.h"

namespace astraea {
namespace {

serve::InferenceServer* g_server = nullptr;
serve::Supervisor* g_supervisor = nullptr;

void OnSignal(int signum) {
  // All paths are async-signal-safe: atomic stores plus kill(2).
  if (g_supervisor != nullptr) {
    if (signum == SIGHUP) {
      g_supervisor->SignalChild(SIGHUP);
    } else {
      g_supervisor->Stop();
    }
    return;
  }
  if (g_server == nullptr) {
    return;
  }
  if (signum == SIGHUP) {
    g_server->RequestReload();
  } else {
    g_server->Stop();
  }
}

void InstallHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  sigaction(SIGHUP, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// One serving-loop incarnation (the whole process without --supervise; one
// child lifetime with it). `chaos_offset` is how far into the chaos timeline
// this incarnation starts.
int RunServer(const serve::InferenceServerConfig& config, const std::string& metrics_out,
              const chaos::ChaosSchedule& chaos_schedule, TimeNs chaos_offset) {
  // A supervised child inherits the parent's g_supervisor; signals here must
  // go to this incarnation's server, not the stale supervisor copy.
  g_supervisor = nullptr;
  try {
    serve::InferenceServer server(config);
    g_server = &server;
    InstallHandlers();

    std::unique_ptr<chaos::ChaosRunner> chaos_runner;
    if (!chaos_schedule.empty()) {
      chaos_runner = std::make_unique<chaos::ChaosRunner>(chaos_schedule, chaos_offset);
    }

    // The window is sub-millisecond by default, so it prints in µs (500us).
    std::printf("astraea_serve: model %s (input dim %d), socket %s, batch window %.10gus, "
                "max batch %zu, shed margin %.2f\n",
                server.config().model_path.c_str(), server.model_input_dim(),
                server.config().socket_path.c_str(),
                static_cast<double>(server.config().batch_window) /
                    static_cast<double>(kNanosPerMicro),
                server.config().max_batch, server.config().shed_margin);
    std::fflush(stdout);
    server.Run();
    g_server = nullptr;

    std::printf("astraea_serve: served %llu decisions (%llu shed); shutting down\n",
                static_cast<unsigned long long>(server.served_total()),
                static_cast<unsigned long long>(server.shed_count()));
    if (!metrics_out.empty() &&
        !cli::WriteOutputFile(metrics_out, MetricsRegistry::Global().ToJson() + "\n")) {
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "astraea_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  serve::InferenceServerConfig config;
  config.socket_path = "/tmp/astraea.sock";
  std::string metrics_out;
  std::string chaos_text;
  bool supervise = false;
  int max_restarts = -1;
  cli::FlagSet()
      .String("--socket", &config.socket_path)
      .String("--model", &config.model_path)
      .PositiveDuration("--batch-window", Seconds(1.0), &config.batch_window)
      .Int("--max-batch", 1, 4096, &config.max_batch)
      .Double("--shed-margin", 0.0, 100.0, &config.shed_margin)
      .String("--metrics-out", &metrics_out)
      .String("--chaos", &chaos_text)
      .Switch("--supervise", &supervise)
      .Int("--max-restarts", 0, 1000000, &max_restarts)
      .Parse(argc, argv);
  if (config.model_path.empty()) {
    std::fprintf(stderr, "astraea_serve: --model is required (a trained actor checkpoint, "
                         "e.g. models/astraea_policy_trained.ckpt)\n");
    return 1;
  }
  chaos::ChaosSchedule chaos_schedule;
  if (!chaos_text.empty()) {
    try {
      chaos_schedule = chaos::ChaosSchedule::Parse(chaos_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid value for --chaos: %s\n", e.what());
      return 1;
    }
  }

  if (!supervise) {
    return RunServer(config, metrics_out, chaos_schedule, /*chaos_offset=*/0);
  }

  serve::SupervisorConfig sup_config;
  sup_config.max_restarts = max_restarts;
  serve::Supervisor supervisor(sup_config, [&](TimeNs elapsed) {
    return RunServer(config, metrics_out, chaos_schedule, elapsed);
  });
  g_supervisor = &supervisor;
  InstallHandlers();
  std::printf("astraea_serve: supervising (max restarts %s)\n",
              max_restarts < 0 ? "unlimited" : std::to_string(max_restarts).c_str());
  std::fflush(stdout);
  const int status = supervisor.Run();
  g_supervisor = nullptr;
  std::printf("astraea_serve: supervisor exiting (status %d, %llu restarts)\n", status,
              static_cast<unsigned long long>(supervisor.restarts()));
  return status;
}

}  // namespace
}  // namespace astraea

int main(int argc, char** argv) { return astraea::Main(argc, argv); }
