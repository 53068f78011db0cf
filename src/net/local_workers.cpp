#include "net/local_workers.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/worker.hpp"
#include "telemetry/log.hpp"

#if !defined(_WIN32)
#include <cerrno>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace aropuf::net {

#if !defined(_WIN32)

std::string self_executable(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

namespace {

constexpr const char* kLoopback = "127.0.0.1";

/// The child processes of one local run.  The destructor kills and reaps
/// whatever is still alive, so no exit path (a throwing coordinator
/// included) leaves a worker behind.
class Pool {
 public:
  Pool(const LocalWorkers& spec, std::uint16_t port, int spawn_budget) : budget_(spawn_budget) {
    argv_ = {spec.executable, "--worker", std::string(kLoopback) + ":" + std::to_string(port)};
    argv_.insert(argv_.end(), spec.args.begin(), spec.args.end());
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { shutdown(0.0); }

  /// Spawns until `target` processes are alive or the spawn budget is spent.
  void top_up(int target) {
    while (static_cast<int>(live_.size()) < target && budget_ > 0) {
      --budget_;
      spawn();
    }
  }

  /// Forgets every child that has exited (non-blocking).
  void reap() {
    for (auto it = live_.begin(); it != live_.end();) {
      int status = 0;
      const pid_t rc = ::waitpid(it->first, &status, WNOHANG);
      if (rc == it->first || (rc < 0 && errno == ECHILD)) {
        it = live_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// SIGKILLs the child that announced itself as `worker` (if it is ours).
  void kill_worker(const std::string& worker) {
    for (const auto& [pid, name] : live_) {
      if (name == worker) ::kill(pid, SIGKILL);
    }
  }

  [[nodiscard]] bool empty() const { return live_.empty(); }
  [[nodiscard]] bool exhausted() const { return budget_ <= 0; }

  /// Gives the children up to `grace_s` to exit on their own (they were sent
  /// BYE), then kills and reaps the rest.
  void shutdown(double grace_s) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(grace_s);
    while (!live_.empty() && std::chrono::steady_clock::now() < deadline) {
      reap();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (const auto& [pid, name] : live_) ::kill(pid, SIGKILL);
    for (const auto& [pid, name] : live_) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    live_.clear();
  }

 private:
  void spawn() {
    // Everything the child touches is built before fork(): between fork and
    // exec only async-signal-safe calls are allowed.
    std::vector<char*> argv;
    argv.reserve(argv_.size() + 1);
    for (std::string& a : argv_) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error(std::string("fleet: fork failed: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::execvp(argv[0], argv.data());  // PATH lookup only for a bare argv0
      static const char kMsg[] = "local worker: exec failed\n";
      (void)!::write(2, kMsg, sizeof kMsg - 1);
      ::_exit(127);
    }
    live_[pid] = default_worker_name(kLoopback, static_cast<long>(pid));
  }

  std::vector<std::string> argv_;
  std::map<pid_t, std::string> live_;  ///< pid → the HELLO name it announces
  int budget_;
};

}  // namespace

FleetSummary run_local(CoordinatorConfig config, CoordinatorCallbacks callbacks,
                       const LocalWorkers& workers) {
  config.bind_address = kLoopback;
  config.port = 0;
  const int jobs = static_cast<int>(config.jobs.size());
  const int target = std::max(1, std::min(workers.count, jobs));
  // One spawn per worker slot plus one per attempt the retry budget allows:
  // enough to replace every worker a failing job can take down, and finite
  // when the binary cannot start at all.
  const int budget = target + jobs * (config.retries + 1);

  std::optional<Pool> pool;  // outlives the coordinator and its callbacks
  auto on_event = std::move(callbacks.on_event);
  callbacks.on_event = [&pool, on_event](const std::string& event, int shard,
                                         const std::string& detail) {
    // A silent worker was cut loose; a hung process must not outlive it.
    if (event == "timeout") pool->kill_worker(detail);
    if (on_event) on_event(event, shard, detail);
  };
  auto on_tick = std::move(callbacks.on_tick);
  callbacks.on_tick = [&pool, target, on_tick](std::size_t jobs_left) {
    pool->reap();
    if (jobs_left > 0) pool->top_up(std::min(target, static_cast<int>(jobs_left)));
    if (pool->empty() && pool->exhausted()) {
      ARO_LOG_ERROR("fleet", "local workers keep exiting; giving up",
                    {"jobs_left", JsonValue(static_cast<double>(jobs_left))});
      return false;
    }
    return !on_tick || on_tick(jobs_left);
  };

  Coordinator coordinator(std::move(config), std::move(callbacks));
  pool.emplace(workers, coordinator.port(), budget);
  pool->top_up(target);
  const FleetSummary summary = coordinator.run();
  pool->shutdown(/*grace_s=*/2.0);
  return summary;
}

#else  // _WIN32: no fork/exec; tools run jobs in-process instead.

std::string self_executable(const char* argv0) { return argv0; }

FleetSummary run_local(CoordinatorConfig, CoordinatorCallbacks, const LocalWorkers&) {
  throw std::runtime_error("fleet: local worker processes require POSIX fork/exec");
}

#endif

}  // namespace aropuf::net
