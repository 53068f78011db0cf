#include "bench.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::ops(std::uint64_t n, std::uint64_t bad) {
  attempted_ += n;
  failed_ += bad;
}

bool Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

void Result::info(const std::string& key, JsonValue value) { info_[key] = std::move(value); }

JsonValue Result::to_json() const {
  JsonValue::Object metrics;
  for (const auto& [name, vu] : metrics_) {
    JsonValue::Object m;
    m["value"] = JsonValue(vu.first);
    m["unit"] = JsonValue(vu.second);
    metrics[name] = JsonValue(std::move(m));
  }
  JsonValue::Array failures;
  for (const auto& f : failures_) failures.emplace_back(f);
  JsonValue::Object root;
  root["correct"] = JsonValue(failed_ == 0);
  root["attempted"] = JsonValue(attempted_);
  root["failed"] = JsonValue(failed_);
  root["metrics"] = JsonValue(std::move(metrics));
  root["failures"] = JsonValue(std::move(failures));
  root["info"] = JsonValue(info_);
  return JsonValue(std::move(root));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

JsonValue samples(const std::vector<double>& values) {
  return JsonValue(JsonValue::Array(values.begin(), values.end()));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

constexpr double kSetUpSeconds = 1.0;
constexpr std::size_t kMinSetUpReps = 5;

/// Runs cycle `i` (odd cycles traced when tracing) and logs its wall time,
/// then `between`; returns the seconds both took.
double run_cycle(const Options& opt, int i, const std::function<void()>& cycle,
                 const Between& between, CycleLog& log) {
  const bool traced = opt.trace && i % 2 == 1;
  enable_tracing(traced);
  const std::int64_t t0 = now_ns();
  {
    const Span root(Layer::kHarness, "cycle", static_cast<std::uint64_t>(i));
    cycle();
  }
  const double wall = seconds_between(t0, now_ns());
  enable_tracing(false);
  (traced ? log.traced_wall : log.untraced_wall).push_back(wall);
  between(i);
  return seconds_between(t0, now_ns());
}

}  // namespace

SetUpTimes time_set_up(const std::function<void()>& set_up) {
  std::vector<double> durations;
  double total = 0.0;
  while (total < kSetUpSeconds || durations.size() < kMinSetUpReps) {
    const std::int64_t t0 = now_ns();
    set_up();
    durations.push_back(seconds_between(t0, now_ns()));
    total += durations.back();
  }
  return {median(durations), durations.front(), static_cast<int>(durations.size())};
}

void report_set_up(Result& result, const SetUpTimes& times) {
  result.metric("setup_s", times.median_s, "s");
  result.info("setup_first_s", JsonValue(times.first_s));
  result.info("setup_reps", JsonValue(times.reps));
}

CycleLog run_cycles(const Options& opt, int min_cycles, const std::function<void()>& cycle,
                    const Between& between) {
  CycleLog log;
  if (opt.trace) min_cycles = std::max(min_cycles, 2);
  const std::int64_t start = now_ns();
  double slowest = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_between(start, now_ns());
    if (i >= min_cycles && elapsed + slowest > opt.seconds) break;
    slowest = std::max(slowest, run_cycle(opt, i, cycle, between, log));
  }
  return log;
}

CycleLog run_fixed_cycles(const Options& opt, int cycles, const std::function<void()>& cycle,
                          const Between& between) {
  CycleLog log;
  if (opt.trace) cycles = std::max(cycles, 2);
  for (int i = 0; i < cycles; ++i) (void)run_cycle(opt, i, cycle, between, log);
  return log;
}

double tail_quantile(std::uint64_t samples) {
  const double beyond = 1000.0 / static_cast<double>(std::max<std::uint64_t>(samples, 1));
  return std::clamp(std::floor(100.0 - beyond) / 100.0, 0.0, 0.99);
}

void report_ops(Result& result, double ops_per_s, double ops_1t_per_s, double op_p50_s,
                double op_tail_s, double tail_q, std::uint64_t latency_samples) {
  result.metric("ops_per_s", ops_per_s, "1/s");
  result.metric("ops_1t_per_s", ops_1t_per_s, "1/s");
  result.metric("op_p50_us", op_p50_s * 1e6, "us");
  result.metric("op_tail_us", op_tail_s * 1e6, "us");
  result.info("op_tail_percentile", JsonValue(100.0 * tail_q));
  result.info("op_latency_samples", JsonValue(latency_samples));
}


namespace {

double layer_wall(const Ledger& l, Layer layer) { return l.wall_s[static_cast<std::size_t>(layer)]; }

double counted(const Ledger& l, Count c) {
  return static_cast<double>(l.counts[static_cast<std::size_t>(c)]);
}

}  // namespace

void add_layer_metrics(Result& result, const CycleLog& log) {
  const Ledger l = ledger();
  const double cycles = std::max<double>(1.0, static_cast<double>(log.traced_wall.size()));
  double traced_wall = 0.0;
  for (const double w : log.traced_wall) traced_wall += w;
  const auto per_cycle = [&](double v) { return v / cycles; };
  const auto frac = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  result.metric("variation.build_s", per_cycle(layer_wall(l, Layer::kVariation)), "s");
  result.metric("variation.chips", per_cycle(counted(l, Count::kChipsBuilt)), "count");
  result.metric("device.age_s", per_cycle(layer_wall(l, Layer::kDevice)), "s");
  result.metric("device.age_calls", per_cycle(counted(l, Count::kAgeCalls)), "count");
  result.metric("circuit.freq_s", per_cycle(layer_wall(l, Layer::kCircuit)), "s");
  result.metric("circuit.ro_evals", per_cycle(counted(l, Count::kRoEvals)), "count");
  result.metric("circuit.ns_per_ro_eval",
                frac(l.thread_s[static_cast<std::size_t>(Layer::kCircuit)] * 1e9,
                     counted(l, Count::kRoEvals)),
                "ns");
  result.metric("puf.eval_s", per_cycle(layer_wall(l, Layer::kPuf)), "s");
  result.metric("puf.evals", per_cycle(counted(l, Count::kPufEvals)), "count");
  result.metric("metrics.s", per_cycle(layer_wall(l, Layer::kMetrics)), "s");
  result.metric("metrics.calls", per_cycle(counted(l, Count::kMetricsCalls)), "count");
  result.metric("ecc.search_s", per_cycle(layer_wall(l, Layer::kEcc)), "s");
  result.metric("ecc.searches", per_cycle(counted(l, Count::kEccSearches)), "count");
  result.metric("ecc.search_fail", per_cycle(counted(l, Count::kEccSearchFails)), "count");
  result.metric("keygen.enroll_s", per_cycle(named_wall_s("keygen.enroll")), "s");
  result.metric("keygen.reconstruct_s", per_cycle(named_wall_s("keygen.reconstruct")), "s");
  result.metric("keygen.reconstructs", per_cycle(counted(l, Count::kKeygenRecons)), "count");
  result.metric("keygen.decode_ok_frac",
                frac(counted(l, Count::kKeygenReconsOk), counted(l, Count::kKeygenRecons)),
                "fraction");
  result.metric("auth.build_s", per_cycle(named_wall_s("auth.build")), "s");
  result.metric("auth.open_s", per_cycle(named_wall_s("auth.open")), "s");
  result.metric("auth.verify_s", per_cycle(named_wall_s("auth.verify")), "s");
  result.metric("auth.verifies", per_cycle(counted(l, Count::kAuthVerifies)), "count");
  result.metric("auth.verify_fail", per_cycle(counted(l, Count::kAuthVerifyFails)), "count");
  // Workloads that run the auth layer overwrite these two.
  result.metric("auth.cache_hit_frac", 0.0, "fraction");
  result.metric("auth.store_bytes_per_device", 0.0, "B");
  result.metric("attack.s", per_cycle(layer_wall(l, Layer::kAttack)), "s");
  for (int e = 1; e <= 14; ++e) {
    const std::string span = std::string("E").append(std::to_string(e));
    const std::string name = "sim." + span;
    result.metric(name + "_s", per_cycle(named_inclusive_s(span)), "s");
  }
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    result.metric(std::string(layer_name(static_cast<Layer>(i))) + ".share",
                  frac(l.wall_s[i], traced_wall), "fraction");
  }
  result.metric("trace.overhead_frac",
                frac(median(log.traced_wall), median(log.untraced_wall)) - 1.0, "fraction");
  result.metric("trace.spans", per_cycle(static_cast<double>(l.spans)), "count");
}

}  // namespace perfbench
