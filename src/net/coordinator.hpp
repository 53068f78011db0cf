// Fleet coordinator: the repo's one job runner.  Dispatches seed-range shard
// jobs to TCP workers and collects their results.
//
// One single-threaded poll() loop owns the listener plus every worker
// connection; all protocol state lives in this module, all policy about what
// the bytes *mean* stays with the caller:
//
//  * jobs are shard indices (a JobMsg template with the shard index filled
//    per dispatch); a resumed run hands over only the indices still missing;
//  * a returned RESULT is handed to callbacks.on_result as raw bytes —
//    tools/aropuf_fleet.cpp streams shard manifests into AggregateBuilder,
//    tools/aropuf_auth.cpp writes enrollment-store shards to disk;
//  * a worker that disconnects, times out (no frame within
//    heartbeat_timeout_s), or reports an ERROR while owning a job sends that
//    job back through the retry budget (attempts ≤ retries+1).  A throwing
//    on_result counts as a failed attempt too: a manifest that will not fold
//    is as fatal as a worker that never answered.
//
// Workers are whoever connects: remote hosts (aropuf_fleet --listen) or the
// child processes net/local_workers.hpp launches for a local run.
//
// The worker and coordinator state machines, frame ordering rules, and error
// codes are specified normatively in DESIGN.md §11.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "telemetry/progress.hpp"

namespace aropuf::net {

/// Run parameters for one coordinator instance.
struct CoordinatorConfig {
  /// Listen address: loopback by default, so only local workers can reach
  /// an unauthenticated ARPF port; "0.0.0.0" serves remote workers.
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;           ///< listen port; 0 = kernel-assigned
  std::vector<int> jobs;            ///< shard indices to run, each < job_template.shards
  int retries = 1;                  ///< extra attempts per failed job
  double heartbeat_timeout_s = 60;  ///< drop a silent busy worker (0 = never)
  double total_timeout_s = 0;       ///< abort the whole run (0 = never)
  /// Study parameters; shard/attempt/parent_span are filled per dispatch
  /// (trace_id, when set, rides every JOB unchanged — see DESIGN.md §11.8).
  JobMsg job_template;
};

/// Event hooks.  All callbacks fire on the coordinator's own thread.
struct CoordinatorCallbacks {
  /// A completed job's RESULT bytes (a shard-manifest container for study
  /// jobs, an ARPS store image for enroll jobs).  Throwing fails this
  /// attempt and routes the job through the retry budget.
  std::function<void(int shard, std::string bytes, const std::string& worker)> on_result;
  /// A worker's progress heartbeat.
  std::function<void(const telemetry::Heartbeat& beat, const std::string& worker)> on_heartbeat;
  /// A worker's METRICS snapshot (registry state + drained trace spans).
  /// `clock_offset_ms` is the coordinator's current skew estimate for this
  /// worker (coordinator clock − worker clock, minimum over the arrival
  /// samples from HELLO/HEARTBEAT/METRICS timestamps — DESIGN.md §11.8).
  std::function<void(const MetricsMsg& msg, const std::string& worker, double clock_offset_ms)>
      on_metrics;
  /// Lifecycle narration for logs/HUD: event ∈ {"connect", "dispatch",
  /// "retry", "disconnect", "timeout", "fail", "bye"}.
  std::function<void(const std::string& event, int shard, const std::string& detail)> on_event;
  /// Called once per poll-loop pass (at most ~100 ms apart) with the number
  /// of unfinished jobs.  Returning false ends the run early (summary.ok is
  /// false); the local launcher uses it to reap and replace its workers.
  std::function<bool(std::size_t jobs_left)> on_tick;
};

/// Terminal accounting for one coordinator run.
struct FleetSummary {
  bool ok = false;        ///< every job completed within its retry budget
  bool timed_out = false; ///< total_timeout_s elapsed with jobs outstanding
  int jobs_done = 0;      ///< jobs whose RESULT was accepted by on_result
  int jobs_failed = 0;    ///< jobs that exhausted their retry budget
  int workers_seen = 0;    ///< connections that completed the HELLO handshake
  int reassignments = 0;   ///< dispatches beyond each job's first attempt
};

/// Runs the coordinator loop: binds in the constructor (so callers can learn
/// the ephemeral port before any worker exists), serves in run() until every
/// job lands or fails terminally, then sends BYE to the fleet.
class Coordinator {
 public:
  /// Binds the listener immediately; throws std::runtime_error when the
  /// requested address/port cannot be bound, the job list is empty or names
  /// an index outside the template's shard count, or this build has no TCP
  /// transport.
  Coordinator(CoordinatorConfig config, CoordinatorCallbacks callbacks);
  /// Closes the listener and every worker connection still open.
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound listen port (resolves a port-0 request).
  [[nodiscard]] std::uint16_t port() const;

  /// Blocks until the run completes.  Throws std::runtime_error only on
  /// unrecoverable transport faults (listener death); per-worker faults are
  /// absorbed into the retry budget and the summary.
  [[nodiscard]] FleetSummary run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace aropuf::net
