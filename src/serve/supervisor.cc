#include "src/serve/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/ipc/shm_ring.h"
#include "src/serve/serve_metrics.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace astraea {
namespace serve {

namespace {

// Child-side: undo whatever handlers the supervising parent installed so the
// serving loop starts from default dispositions (the tool re-installs its
// own).
void ResetSignals() {
  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sa.sa_handler = SIG_DFL;
  sigaction(SIGHUP, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool CleanExit(int status) { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

int ExitCode(int status) {
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return 128 + WTERMSIG(status);
  }
  return 1;
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config, std::function<int(TimeNs elapsed)> child_main)
    : config_(config),
      child_main_(std::move(child_main)),
      backoff_(config.restart_backoff, config.seed) {
  RegisterServeMetrics();
}

int Supervisor::Run() {
  Counter& restarts_total = RegisterSupervisorMetrics().restarts_total;
  const TimeNs start = ipc::MonotonicNowNs();
  int last_status = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    const TimeNs spawn = ipc::MonotonicNowNs();
    const pid_t pid = fork();
    if (pid < 0) {
      ASTRAEA_LOG(Error) << "supervisor: fork failed: " << std::strerror(errno);
      return 1;
    }
    if (pid == 0) {
      ResetSignals();
      _exit(child_main_(spawn - start));
    }
    child_pid_.store(pid, std::memory_order_release);

    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        status = 0;
        break;
      }
      // A Stop() from a signal handler lands here: make sure the child is
      // going down, then keep waiting so it never outlives us unreaped.
      if (stop_.load(std::memory_order_acquire)) {
        kill(pid, SIGTERM);
      }
    }
    child_pid_.store(-1, std::memory_order_release);
    last_status = ExitCode(status);
    const TimeNs uptime = ipc::MonotonicNowNs() - spawn;

    if (CleanExit(status) || stop_.load(std::memory_order_acquire)) {
      return stop_.load(std::memory_order_acquire) ? 0 : last_status;
    }
    // Abnormal exit: restart (with brake), unless the budget ran out.
    if (config_.max_restarts >= 0 &&
        restarts_.load(std::memory_order_acquire) >= static_cast<uint64_t>(config_.max_restarts)) {
      ASTRAEA_LOG(Error) << "supervisor: child died (status " << last_status << ") and the "
                         << config_.max_restarts << "-restart budget is spent; giving up";
      return last_status;
    }
    const uint64_t n = restarts_.fetch_add(1, std::memory_order_acq_rel) + 1;
    restarts_total.Increment();
    if (uptime >= config_.healthy_uptime) {
      backoff_.Reset();
    }
    const TimeNs delay = backoff_.NextDelay();
    ASTRAEA_LOG(Warning) << "supervisor: child died (status " << last_status << ", uptime "
                         << FormatTime(uptime) << "); restart #" << n << " in "
                         << FormatTime(delay);
    // Interruptible backoff sleep: Stop() must not wait out a 5 s brake.
    const TimeNs until = ipc::MonotonicNowNs() + delay;
    while (!stop_.load(std::memory_order_acquire) && ipc::MonotonicNowNs() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return last_status;
}

void Supervisor::Stop() {
  stop_.store(true, std::memory_order_release);
  const pid_t pid = child_pid_.load(std::memory_order_acquire);
  if (pid > 0) {
    kill(pid, SIGTERM);
  }
}

void Supervisor::SignalChild(int signum) {
  const pid_t pid = child_pid_.load(std::memory_order_acquire);
  if (pid > 0) {
    kill(pid, signum);
  }
}

}  // namespace serve
}  // namespace astraea
