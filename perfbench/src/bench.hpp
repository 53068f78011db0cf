// Shared pieces of the benchmark runner: options, the result ledger every
// workload fills, sample statistics, and the timed sample loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "trace.hpp"

namespace perfbench {

using aropuf::JsonValue;

struct Options {
  std::string workload;
  std::uint64_t seed = 2014;
  double seconds = 30.0;
  bool trace = false;
  bool tiny = false;        ///< smoke-test sizes
  std::string inject;       ///< deliberately broken expectation (self-test)
  int threads = 1;          ///< N = nproc: worker threads / verify clients
  std::string out_dir = ".";
};

/// Everything a run reports.  Every output check is one attempted operation;
/// a check that does not hold is one failed operation.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records `n` operations of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad = 0);
  /// One output check; returns `ok`.
  bool check(bool ok, const std::string& what);
  void info(const std::string& key, JsonValue value);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] JsonValue to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  JsonValue::Object info_;
};

[[nodiscard]] double median(std::vector<double> values);
/// The values as a JSON array (per-cycle samples in the report).
[[nodiscard]] JsonValue samples(const std::vector<double>& values);
/// Quantile q in [0, 1] by linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Seconds between two now_ns() readings.
[[nodiscard]] inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Durations of a workload's set-up, repeated within one run.
struct SetUpTimes {
  double median_s = 0.0;  ///< the reported setup_s
  double first_s = 0.0;   ///< the first repetition, which also pays one-time initialisation
  int reps = 0;
};

/// Runs `set_up` until it has taken 1 s in total and at least 5 times.
[[nodiscard]] SetUpTimes time_set_up(const std::function<void()>& set_up);

/// Records the set-up times: setup_s and, in the report, the first
/// repetition and the repetition count.
void report_set_up(Result& result, const SetUpTimes& times);

/// Measured cycles of a run.  With tracing requested, cycles alternate
/// untraced / traced (starting untraced) so the traced run also measures
/// its own overhead; otherwise every cycle runs untraced.
struct CycleLog {
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
};

/// Runs after cycle `i`, untraced and outside the cycle's wall time: the
/// workload's 1-thread share, spread over the run so that one slow stretch
/// of the host does not set the whole 1-thread figure.
using Between = std::function<void(int i)>;

/// Repeats `cycle`, each followed by `between`, until `seconds` have
/// elapsed (at least `min_cycles` times), never starting one that the
/// slowest so far says would overrun the budget, once `min_cycles` are done.
CycleLog run_cycles(const Options& opt, int min_cycles, const std::function<void()>& cycle,
                    const Between& between);

/// Runs `cycle`, each followed by `between`, exactly `cycles` times (at
/// least twice when tracing, so one cycle is untraced and one traced),
/// whatever the host's speed.
CycleLog run_fixed_cycles(const Options& opt, int cycles, const std::function<void()>& cycle,
                          const Between& between);

/// The highest percentile, as a quantile of at most 0.99 in whole percent,
/// that leaves at least ten of `samples` beyond it.
[[nodiscard]] double tail_quantile(std::uint64_t samples);

/// The end-to-end metrics every workload reports for its own operation (an
/// experiment, a chip checkpoint, a verify): operations per second at N
/// threads and at 1 thread, each a median over the run's samples, and one
/// operation's latency at N threads: the median and the quantile `tail_q`
/// of `latency_samples` latencies.
void report_ops(Result& result, double ops_per_s, double ops_1t_per_s, double op_p50_s,
                double op_tail_s, double tail_q, std::uint64_t latency_samples);

/// Per-layer metrics from the trace ledger, normalised per traced cycle.
void add_layer_metrics(Result& result, const CycleLog& log);

/// Workload entry points.
void run_repro(const Options& opt, Result& result);
void run_aging_fleet(const Options& opt, Result& result);
void run_auth_verify(const Options& opt, Result& result);

}  // namespace perfbench
