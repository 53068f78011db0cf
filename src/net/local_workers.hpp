// Local runs: the coordinator plus N worker processes on this host.
//
// run_local() binds a coordinator on 127.0.0.1 (kernel-assigned port, never
// reachable from the network), then fork/execs `count` copies of a worker
// binary — normally the calling tool itself — as
//
//   <executable> --worker 127.0.0.1:<port> <args...>
//
// From there the coordinator owns everything it owns for remote fleets:
// dispatch, retries, liveness timeouts, the streaming fold and the fleet
// timeline.  The launcher only keeps the processes honest:
//
//  * a worker process that exits while jobs remain is reaped and replaced
//    (bounded: at most one spawn per possible attempt, so a binary that
//    cannot start ends the run instead of looping);
//  * a worker the coordinator drops for silence (heartbeat_timeout_s) is
//    killed, since a hung process would otherwise outlive the run;
//  * when the run ends every child gets a short grace period to exit on its
//    BYE, then any survivor is killed, and all of them are reaped.
//
// This is the repo's only fork/exec code.  POSIX only: where net_available()
// is false, run_local throws and tools take the in-process path
// (net::run_in_process).
#pragma once

#include <string>
#include <vector>

#include "net/coordinator.hpp"

namespace aropuf::net {

/// Worker processes for one local run.
struct LocalWorkers {
  std::string executable;         ///< binary to exec (see self_executable)
  std::vector<std::string> args;  ///< argv after "--worker 127.0.0.1:PORT"
  int count = 1;                  ///< processes kept alive while jobs remain
};

/// Path this process can re-exec itself from: /proc/self/exe where it
/// exists, `argv0` otherwise.
[[nodiscard]] std::string self_executable(const char* argv0);

/// Runs `config` on a loopback coordinator served by `workers` (overrides
/// config.bind_address and config.port).  The callbacks fire as for any
/// coordinator; on_event and on_tick are chained after the launcher's own
/// handling.  Throws std::runtime_error when the listener cannot bind, no
/// worker can be spawned, or the coordinator's transport fails; every child
/// is killed and reaped before it returns or throws.
[[nodiscard]] FleetSummary run_local(CoordinatorConfig config, CoordinatorCallbacks callbacks,
                                     const LocalWorkers& workers);

}  // namespace aropuf::net
