// aropuf_fleet: the one job runner for the sharded E2+E3 population study.
//
// One binary, three modes:
//
//  * local (default) — binds a coordinator on 127.0.0.1, fork/execs --jobs
//    copies of itself as workers (net/local_workers), and runs the study as
//    --shards seed-range shard jobs.  With --no-fork (and on platforms
//    without fork/exec or sockets) the same jobs run one after another in
//    this process instead, through the same callbacks.
//
//  * coordinator (--listen PORT) — the same run served to whatever workers
//    connect over TCP, on every interface.
//
//  * worker (--worker HOST:PORT) — connects to a coordinator, runs assigned
//    shard jobs in-process (sim/shard_study), and frames each resulting
//    manifest container back.  Progress heartbeats ride the same connection.
//    Workers are stateless: every job message carries the full study
//    parameterization, so a worker binary needs no other configuration.
//
// Every run folds results as they land: each returned shard-manifest
// container is persisted into --out (the exact bytes a disk-writing worker
// would have produced) and streamed into AggregateBuilder, so the merged
// manifest is bit-identical to a single-process run — --check-single proves
// it on demand.  --resume folds the shard manifests already in --out first
// and dispatches only the missing shards.  Workers that die, stall past
// --worker-timeout, or return manifests that will not fold route their jobs
// back through the retry budget (--retries); a local worker that stalls is
// killed and replaced.
//
// The wire protocol (ARPF frames: HELLO/JOB/HEARTBEAT/RESULT/ERROR/METRICS/
// BYE) is specified normatively in DESIGN.md §11; docs/runbook-fleet.md is
// the operator guide.
//
// Observability: the coordinator stamps a fleet-wide trace id on every JOB,
// folds worker heartbeats and METRICS snapshots into a live per-worker HUD
// (TTY only), and on exit writes fleet_trace.json (merged offset-corrected
// Chrome timeline), fleet_metrics.json (schema aropuf-fleet-metrics v1), and
// fleet_metrics.prom (Prometheus text exposition) into --out — for failed
// runs too.
//
// Exit codes, local and coordinator modes: 0 success; 1 failed jobs, fold
// errors, provenance conflicts, or write errors; 2 usage error; 3
// --check-single mismatch (merged statistics differ from the single-process
// run — a determinism regression, never acceptable).  Worker mode exits with
// the WorkerExit status (0 = dismissed with BYE).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "net/coordinator.hpp"
#include "net/fleet_view.hpp"
#include "net/local_workers.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "sim/parallel.hpp"
#include "sim/shard_study.hpp"
#include "sim/study_report.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/trace.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace {

using namespace aropuf;

struct Options {
  // Study parameters (shipped to workers inside each JOB).
  int chips = 40;
  std::uint64_t seed = 2014;
  std::vector<double> checkpoints = {1.0, 2.0, 5.0, 10.0};
  std::string run = "fleet_study";
  std::string format = "binary";  ///< RESULT transport: "binary" or "json"

  // Run parameters (local and coordinator modes).
  int listen_port = -1;  ///< -1 = local mode (no --listen)
  std::string port_file;
  int shards = 4;
  int jobs = 0;  ///< local worker processes; 0 = min(shards, cores)
  int retries = 1;
  double worker_timeout_s = 60.0;
  double timeout_s = 0.0;
  std::string out_dir = "fleet-run";
  bool resume = false;
  bool no_fork = false;
  bool drop_raw = false;
  bool check_single = false;
  bool quiet = false;

  // Worker parameters.
  std::string worker_spec;  ///< "HOST:PORT"; non-empty selects worker mode
  std::string worker_name;
  int threads = 0;
  bool abort_first_job = false;  ///< test hook (hidden)
};

bool parse_checkpoints(const std::string& csv, std::vector<double>* out) {
  std::vector<double> years;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) return false;
    char* end = nullptr;
    const double y = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || y < 0.0) return false;
    years.push_back(y);
  }
  if (years.empty() || !std::is_sorted(years.begin(), years.end())) return false;
  *out = std::move(years);
  return true;
}

int parse_args(int argc, char** argv, Options* opt) {
  cli::Parser parser("aropuf_fleet",
                     "sharded E2+E3 population study: local worker processes or a TCP fleet");
  parser
      .opt_int("--chips", &opt->chips, "N", "total chip population (default 40)", 2)
      .opt_uint64("--seed", &opt->seed, "S", "master RNG seed, below 2^53 (default 2014)",
                  kJsonMaxExactInteger)
      .opt_custom("--checkpoints", "CSV", "aging years, non-decreasing (default 1,2,5,10)",
                  [opt](const std::string& v) { return parse_checkpoints(v, &opt->checkpoints); })
      .opt_string("--run", &opt->run, "NAME", "run name in manifests (default fleet_study)")
      .opt_int("--shards", &opt->shards, "K", "number of shard jobs (default 4)", 1)
      .opt_int("--jobs", &opt->jobs, "J",
               "local mode: worker processes (default min(K, cores))", 1)
      .flag("--no-fork", &opt->no_fork, "local mode: run shards one by one in this process")
      .opt_int("--listen", &opt->listen_port, "PORT",
               "coordinator mode: serve remote workers on PORT, all interfaces "
               "(0 = kernel-assigned)",
               0)
      .opt_string("--port-file", &opt->port_file, "PATH",
                  "coordinator: write the bound port to PATH once listening")
      .opt_int("--retries", &opt->retries, "R", "retries per failed job (default 1)", 0)
      .opt_double("--worker-timeout", &opt->worker_timeout_s, "SEC",
                  "reassign a silent busy worker's job after SEC seconds; local "
                  "workers are also killed (default 60, 0 = never)",
                  0.0)
      .opt_double("--timeout", &opt->timeout_s, "SEC",
                  "abort the whole run after SEC seconds (default: none)", 0.0)
      .opt_string("--out", &opt->out_dir, "DIR", "output directory (default fleet-run)")
      .flag("--resume", &opt->resume, "fold valid shard manifests in DIR, run only the rest")
      .opt_string("--format", &opt->format, "FMT",
                  "shard manifest transport: binary or json (default binary)")
      .flag("--drop-raw", &opt->drop_raw,
            "drop raw per-chip series once reduced (aggregate omits them)")
      .flag("--check-single", &opt->check_single, "verify merged results == single-process run")
      .flag("--quiet", &opt->quiet, "suppress per-event narration")
      .opt_string("--worker", &opt->worker_spec, "HOST:PORT",
                  "worker mode: serve jobs from the coordinator at HOST:PORT")
      .opt_string("--name", &opt->worker_name, "NAME", "worker display name (default host:pid)")
      .opt_int("--threads", &opt->threads, "T",
               "threads per shard job (default: library default)", 1)
      .with_env_help();
  // Deterministic killed-worker simulation for the e2e tests: hard-close the
  // connection on the first assigned job.  Parsed but kept out of --help.
  parser.flag("--abort-first-job", &opt->abort_first_job, "abort on first job (test hook)")
      .hidden();

  switch (parser.parse(argc, argv)) {
    case cli::ParseStatus::kHelp:
      std::exit(0);
    case cli::ParseStatus::kError:
      return 2;
    case cli::ParseStatus::kOk:
      break;
  }
  const bool listen = opt->listen_port >= 0;
  const bool worker = !opt->worker_spec.empty();
  if (listen && worker) {
    std::fprintf(stderr, "aropuf_fleet: --listen and --worker are exclusive modes\n");
    return 2;
  }
  if ((listen || worker) && (opt->no_fork || opt->jobs > 0)) {
    std::fprintf(stderr, "aropuf_fleet: --jobs and --no-fork apply to local runs only\n");
    return 2;
  }
  if (opt->listen_port > 65535) {
    std::fprintf(stderr, "aropuf_fleet: --listen port out of range\n");
    return 2;
  }
  if (opt->format != "binary" && opt->format != "json") {
    std::fprintf(stderr, "aropuf_fleet: --format must be binary or json\n");
    return 2;
  }
  return 0;
}

std::int64_t now_unix_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bool stdout_is_tty() {
#if !defined(_WIN32)
  return ::isatty(1) == 1;
#else
  return false;
#endif
}

/// 16-hex-char fleet trace id: splitmix64 over seed ⊕ wall clock ⊕ pid, so
/// concurrent runs from the same seed still get distinct timelines.
std::string make_trace_id(std::uint64_t seed) {
  std::uint64_t x = seed ^ static_cast<std::uint64_t>(now_unix_ms());
#if !defined(_WIN32)
  x ^= static_cast<std::uint64_t>(::getpid()) << 32;
#endif
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.is_open()) return false;
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

/// Live per-worker fleet table, redrawn in place (cursor-up + line-clear).
/// Active only on a TTY without --quiet; when active it replaces the
/// per-event narration entirely (the two would shred each other's terminal
/// region).  The ETA counts shard units: finished shards plus each busy
/// worker's heartbeat fraction, with resumed shards pinned as the estimator
/// baseline so they do not inflate the observed rate.
class FleetHud {
 public:
  FleetHud(bool enabled, int shards, int resumed, std::int64_t start_unix_ms)
      : enabled_(enabled), shards_(shards), resumed_(resumed), start_unix_ms_(start_unix_ms) {
    eta_.add_baseline(resumed);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  void note_event(const std::string& event, int shard, const std::string& detail) {
    if (!enabled_) return;
    last_event_ = shard >= 0 ? event + " shard " + std::to_string(shard) + " (" + detail + ")"
                             : event + " (" + detail + ")";
  }

  void render(const net::FleetView& view, bool force) {
    if (!enabled_) return;
    // 10 Hz redraw cap: heartbeats can arrive per work unit.
    const std::int64_t now = now_unix_ms();
    if (!force && now - last_render_ms_ < 100) return;
    last_render_ms_ = now;

    double units = resumed_ + view.shards_done();
    for (const net::WorkerView& w : view.workers()) {
      if (w.busy_shard >= 0 && w.stage_total > 0) {
        units += std::min(1.0, static_cast<double>(w.stage_done) /
                                   static_cast<double>(w.stage_total));
      }
    }
    const double elapsed = static_cast<double>(now - start_unix_ms_) / 1000.0;
    const double eta = eta_.eta_seconds(units, shards_, elapsed);
    char eta_text[32] = "";
    if (eta >= 0.0) std::snprintf(eta_text, sizeof eta_text, "  eta %.1fs", eta);

    if (erase_lines_ > 0) std::printf("\x1b[%zuF", erase_lines_);
    std::size_t lines = 0;
    auto line = [&lines](const std::string& text) {
      std::printf("\x1b[2K%s\n", text.c_str());
      ++lines;
    };
    char head[256];
    std::snprintf(head, sizeof head,
                  "fleet: %d/%d done  %d failed  %d reassigned  elapsed %.1fs%s%s%s",
                  resumed_ + view.shards_done(), shards_, view.shards_failed(),
                  view.reassignments(), elapsed, eta_text,
                  last_event_.empty() ? "" : "  |  ", last_event_.c_str());
    line(head);
    for (const net::WorkerView& w : view.workers()) {
      char row[256];
      char units[48] = "";
      if (w.stage_total > 0) {
        std::snprintf(units, sizeof units, " %lld/%lld", static_cast<long long>(w.stage_done),
                      static_cast<long long>(w.stage_total));
      }
      const std::string stage = (w.last_stage.empty() ? "-" : w.last_stage) + units;
      std::snprintf(row, sizeof row,
                    "  worker[%d] %-24s %s  jobs %d/%d  retry %d  %s  clk%+.1fms",
                    w.pid - 2, w.name.c_str(),
                    w.busy_shard >= 0 ? ("busy s" + std::to_string(w.busy_shard)).c_str()
                    : w.connected    ? "idle   "
                                     : "gone   ",
                    w.jobs_done, w.jobs_assigned, w.failed_attempts, stage.c_str(),
                    w.clock_offset_ms);
      line(row);
    }
    std::fflush(stdout);
    erase_lines_ = lines;
  }

  /// Leaves the final table on screen and stops managing the region.
  void finish(const net::FleetView& view) {
    if (!enabled_) return;
    render(view, /*force=*/true);
    erase_lines_ = 0;
  }

 private:
  bool enabled_;
  int shards_;
  int resumed_;
  std::int64_t start_unix_ms_;
  std::int64_t last_render_ms_ = 0;
  std::size_t erase_lines_ = 0;
  std::string last_event_;
  telemetry::EtaEstimator eta_;
};

/// The job body, shared by remote workers, local worker processes and the
/// in-process (--no-fork) loop.
std::string run_study_job(const net::JobMsg& job, const StudyProgressFn& progress) {
  if (job.kind != "study") {
    throw std::runtime_error("aropuf_fleet workers run study jobs, not '" + job.kind + "'");
  }
  ShardStudyConfig cfg;
  cfg.pop.chips = job.chips;
  cfg.pop.seed = job.seed;
  cfg.checkpoints = job.checkpoints;
  return run_shard_job(cfg, job.shard, job.shards, job.run, job.format == "binary", progress);
}

// --- worker mode -------------------------------------------------------------

int run_worker_mode(const Options& opt) {
  net::WorkerConfig config;
  if (!net::parse_hostport(opt.worker_spec, &config.host, &config.port)) {
    std::fprintf(stderr, "aropuf_fleet: bad --worker spec '%s' (want HOST:PORT)\n",
                 opt.worker_spec.c_str());
    return 2;
  }
  if (opt.threads > 0) ParallelExecutor::set_global_thread_count(opt.threads);
  config.name = opt.worker_name;
  config.threads = opt.threads;
  config.abort_first_job = opt.abort_first_job;

  const net::WorkerExit status = net::run_worker(config, run_study_job);
  switch (status) {
    case net::WorkerExit::kBye:
      break;
    case net::WorkerExit::kLost:
      std::fprintf(stderr, "aropuf_fleet: connection to coordinator lost\n");
      break;
    case net::WorkerExit::kProtocol:
      std::fprintf(stderr, "aropuf_fleet: coordinator violated the protocol\n");
      break;
    case net::WorkerExit::kAborted:
      std::fprintf(stderr, "aropuf_fleet: aborted on first job (test hook)\n");
      break;
  }
  return static_cast<int>(status);
}

// --- local and coordinator modes --------------------------------------------

std::string shard_manifest_path(const Options& opt, int shard) {
  return opt.out_dir + "/shard-" + std::to_string(shard) +
         (opt.format == "binary" ? ".manifest.bin" : ".manifest.json");
}

/// Serves the missing shards: over TCP (--listen), to local worker
/// processes, or in this process (--no-fork).
net::FleetSummary serve_jobs(const Options& opt, const char* argv0, net::CoordinatorConfig config,
                             net::CoordinatorCallbacks callbacks) {
  const int jobs = static_cast<int>(config.jobs.size());
  if (opt.listen_port >= 0) {
    config.bind_address = "0.0.0.0";
    config.port = static_cast<std::uint16_t>(opt.listen_port);
    net::Coordinator coordinator(std::move(config), std::move(callbacks));
    std::printf("aropuf_fleet: coordinating %d shard job(s) on port %u\n", jobs,
                static_cast<unsigned>(coordinator.port()));
    std::fflush(stdout);
    if (!opt.port_file.empty()) {
      // The port file is the rendezvous for scripted runs (--listen 0):
      // written atomically (tmp + rename) so a polling launcher never reads a
      // torn value.
      const std::string tmp = opt.port_file + ".tmp";
      if (!write_text_file(tmp, std::to_string(coordinator.port()) + "\n") ||
          std::rename(tmp.c_str(), opt.port_file.c_str()) != 0) {
        throw std::runtime_error("cannot write port file " + opt.port_file);
      }
    }
    return coordinator.run();
  }
  if (opt.no_fork) {
    std::printf("aropuf_fleet: running %d shard job(s) in this process\n", jobs);
    std::fflush(stdout);
    if (opt.threads > 0) ParallelExecutor::set_global_thread_count(opt.threads);
    return net::run_in_process(config, callbacks, run_study_job);
  }
  net::LocalWorkers workers;
  workers.executable = net::self_executable(argv0);
  workers.count = opt.jobs > 0 ? opt.jobs
                               : std::max(1, std::min<int>(opt.shards, static_cast<int>(
                                              std::thread::hardware_concurrency())));
  if (opt.threads > 0) workers.args = {"--threads", std::to_string(opt.threads)};
  std::printf("aropuf_fleet: running %d shard job(s) on %d local worker(s)\n", jobs,
              std::min(workers.count, jobs));
  std::fflush(stdout);
  return net::run_local(std::move(config), std::move(callbacks), workers);
}

int run_study(const Options& opt, const char* argv0) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "aropuf_fleet: cannot create output directory %s: %s\n",
                 opt.out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  ShardStudyConfig cfg;
  cfg.pop.chips = opt.chips;
  cfg.pop.seed = opt.seed;
  cfg.checkpoints = opt.checkpoints;
  const telemetry::RawSeriesPolicy policy = opt.drop_raw
                                                ? telemetry::RawSeriesPolicy::kDropAfterCheck
                                                : telemetry::RawSeriesPolicy::kKeep;

  // Streaming fold: each result is decoded and folded the moment it lands;
  // the builder keeps only the out-of-order window, never the population.
  // A resumed run folds the valid manifests already on disk first, and only
  // the missing shards are dispatched.
  telemetry::AggregateBuilder builder(policy);
  std::vector<int> todo;
  for (int k = 0; k < opt.shards; ++k) {
    const std::string path = shard_manifest_path(opt, k);
    std::string why;
    if (opt.resume && telemetry::shard_manifest_is_valid(path, opt.run, k, opt.shards, &why)) {
      try {
        builder.add(telemetry::load_shard_input(path));
        std::printf("shard %d: valid manifest found, skipping (resume)\n", k);
        continue;
      } catch (const std::exception& e) {
        why = std::string("existing manifest would not fold: ") + e.what();
      }
    }
    if (opt.resume) std::printf("shard %d: re-running (%s)\n", k, why.c_str());
    todo.push_back(k);
  }
  const int resumed = opt.shards - static_cast<int>(todo.size());

  // Observability plane: one trace session (buffer-only unless the operator
  // asked for a file via AROPUF_TRACE), one fleet-wide trace id stamped on
  // every JOB, and one FleetView folding everything the workers report.
  if (!telemetry::trace_enabled()) telemetry::start_trace_buffered();
  telemetry::set_trace_process_label("coordinator " + opt.run);
  telemetry::set_trace_thread_label("coordinator main");
  const std::string trace_id = make_trace_id(opt.seed);
  const std::int64_t run_start_ms = now_unix_ms();
  net::FleetView view(static_cast<int>(todo.size()), opt.run, trace_id, run_start_ms);
  FleetHud hud(stdout_is_tty() && !opt.quiet, opt.shards, resumed, run_start_ms);

  net::CoordinatorConfig config;
  config.jobs = todo;
  config.retries = opt.retries;
  config.heartbeat_timeout_s = opt.worker_timeout_s;
  config.total_timeout_s = opt.timeout_s;
  config.job_template.kind = "study";
  config.job_template.shards = opt.shards;
  config.job_template.chips = opt.chips;
  config.job_template.seed = opt.seed;
  config.job_template.checkpoints = opt.checkpoints;
  config.job_template.run = opt.run;
  config.job_template.format = opt.format;
  config.job_template.trace_id = trace_id;

  net::CoordinatorCallbacks callbacks;
  callbacks.on_result = [&](int shard, std::string bytes, const std::string& worker) {
    // Persist the container first (the same bytes a disk-writing worker
    // would have produced) so a failed run leaves evidence and --resume has
    // something to fold; a write failure is advisory, the in-memory fold
    // below is authoritative.
    const std::string path = shard_manifest_path(opt, shard);
    if (!write_text_file(path, bytes)) {
      std::fprintf(stderr, "aropuf_fleet: warning: could not persist shard %d to %s\n", shard,
                   path.c_str());
    }
    // Throwing here fails the attempt and routes the job through the retry
    // budget — a manifest that will not fold is as fatal as a dead worker.
    builder.add(telemetry::decode_shard_input(std::move(bytes), "worker://" + worker));
    view.note_result(shard, worker, now_unix_ms());
    if (hud.enabled()) {
      hud.render(view, /*force=*/true);
    } else if (!opt.quiet) {
      std::printf("shard %d: folded (%d/%d from %s)\n", shard, builder.shards_added(),
                  opt.shards, worker.c_str());
      std::fflush(stdout);
    }
  };
  // Stage transitions only — per-unit beats would flood a log.  Callbacks
  // fire on this thread, so the map needs no synchronization.
  std::map<int, std::string> last_stage;
  callbacks.on_heartbeat = [&](const telemetry::Heartbeat& beat, const std::string& worker) {
    view.note_heartbeat(beat, worker, now_unix_ms());
    if (hud.enabled()) {
      hud.render(view, /*force=*/false);
      return;
    }
    if (opt.quiet) return;
    const std::string key = worker + "|" + beat.stage;
    if (last_stage[beat.shard] == key) return;
    last_stage[beat.shard] = key;
    std::printf("shard %d: %s (%s)\n", beat.shard, beat.stage.c_str(), worker.c_str());
    std::fflush(stdout);
  };
  callbacks.on_metrics = [&](const net::MetricsMsg& msg, const std::string& worker,
                             double clock_offset_ms) {
    view.note_metrics(msg, worker, clock_offset_ms, now_unix_ms());
    hud.render(view, /*force=*/false);
  };
  callbacks.on_event = [&](const std::string& event, int shard, const std::string& detail) {
    view.note_event(event, shard, detail, now_unix_ms());
    if (hud.enabled()) {
      hud.note_event(event, shard, detail);
      hud.render(view, /*force=*/true);
      return;
    }
    if (opt.quiet) return;
    if (shard >= 0) {
      std::printf("fleet: %s shard %d: %s\n", event.c_str(), shard, detail.c_str());
    } else {
      std::printf("fleet: %s: %s\n", event.c_str(), detail.c_str());
    }
    std::fflush(stdout);
  };

  net::FleetSummary summary;
  summary.ok = true;  // nothing to dispatch when every shard was resumed
  if (!todo.empty()) {
    try {
      summary = serve_jobs(opt, argv0, std::move(config), std::move(callbacks));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aropuf_fleet: run failed: %s\n", e.what());
      return 1;
    }
  }
  hud.finish(view);
  std::printf(
      "aropuf_fleet: %d/%d job(s) done, %d resumed, %d failed, %d worker(s), "
      "%d reassignment(s)%s\n",
      summary.jobs_done, static_cast<int>(todo.size()), resumed, summary.jobs_failed,
      summary.workers_seen, summary.reassignments, summary.timed_out ? " [timed out]" : "");

  // Observability artifacts are written for failed runs too — a timeline of
  // a run that went wrong is worth more than one of a run that went right.
  view.add_local_events(telemetry::drain_trace_events(), telemetry::trace_epoch_unix_ms(),
                        "coordinator " + opt.run);
  const std::int64_t run_end_ms = now_unix_ms();
  const std::string trace_path = opt.out_dir + "/fleet_trace.json";
  const std::string metrics_path = opt.out_dir + "/fleet_metrics.json";
  const std::string prom_path = opt.out_dir + "/fleet_metrics.prom";
  if (!write_text_file(trace_path, view.merged_trace_json().dump(/*indent=*/0) + "\n") ||
      !write_text_file(metrics_path,
                       view.fleet_metrics_json(run_end_ms).dump(/*indent=*/2) + "\n") ||
      !write_text_file(prom_path, view.prometheus_text())) {
    std::fprintf(stderr, "aropuf_fleet: warning: could not write fleet observability artifacts\n");
  } else if (!opt.quiet) {
    std::printf("aropuf_fleet: fleet timeline %s, metrics %s + %s (trace_id %s)\n",
                trace_path.c_str(), metrics_path.c_str(), prom_path.c_str(), trace_id.c_str());
    std::fflush(stdout);
  }

  if (!summary.ok) {
    std::fprintf(stderr, "aropuf_fleet: run failed; no aggregate manifest written\n");
    return 1;
  }

  // The out-of-order window peak is the measurable bounded-memory claim.
  std::printf(
      "aropuf_fleet: folded %d/%d shards as results landed; raw-series window peak %zu of %zu "
      "values (policy %s)\n",
      builder.shards_added(), opt.shards, builder.peak_buffered_values(),
      builder.reduced_values(), opt.drop_raw ? "drop_after_check" : "keep");
  telemetry::AggregateResult merged;
  try {
    merged = builder.finalize();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aropuf_fleet: aggregation failed: %s\n", e.what());
    return 1;
  }
  merged.manifest.as_object()["study"] = build_study_section(merged.manifest, cfg);

  const std::string merged_path = opt.out_dir + "/merged.manifest.json";
  if (!telemetry::write_aggregate_manifest(merged_path, merged.manifest)) {
    // Named on stderr unconditionally (the telemetry error log can be
    // suppressed), and fatal: a truncated aggregate must never reach the
    // conflict scan or --check-single.
    std::fprintf(stderr, "aropuf_fleet: failed to write aggregate manifest to %s\n",
                 merged_path.c_str());
    return 1;
  }
  std::printf("aropuf_fleet: merged manifest written to %s\n", merged_path.c_str());

  if (!merged.conflicts.empty()) {
    for (const telemetry::AggregateConflict& c : merged.conflicts) {
      std::fprintf(stderr, "aropuf_fleet: provenance conflict on '%s' across shards:\n",
                   c.field.c_str());
      for (const auto& [shard, value] : c.values) {
        std::fprintf(stderr, "    shard %d: %s\n", shard, value.c_str());
      }
    }
    return 1;
  }

  if (opt.check_single && !check_merged_against_single(cfg, opt.run, merged.manifest, policy)) {
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const int usage = parse_args(argc, argv, &opt);
  if (usage != 0) return usage;
  if (!net::net_available()) {
    if (opt.listen_port >= 0 || !opt.worker_spec.empty()) {
      std::fprintf(stderr,
                   "aropuf_fleet: TCP fleet runs are not available on this platform; run "
                   "locally (shards then run in-process)\n");
      return 1;
    }
    opt.no_fork = true;
  }
  // Every process profiles itself (AROPUF_PROF is inherited by local
  // workers; AROPUF_PROF_RESOURCE takes a %p pid placeholder so they do not
  // clobber one timeline).  Worker "prof.*" metrics also travel home inside
  // METRICS snapshots and surface in the fleet Prometheus exposition.
  telemetry::start_process_profile();
  const int rc = !opt.worker_spec.empty() ? run_worker_mode(opt) : run_study(opt, argv[0]);
  const bool prof_ok = telemetry::stop_process_profile();
  return rc != 0 ? rc : (prof_ok ? 0 : 1);
}
