// `aging_fleet`: a large population per design, each chip enrolled at the
// nominal corner and aged through the E2 checkpoints, reading its RO
// frequencies (the E1 quantity) and its response (the E2 quantity) at each.
// The operation is one chip checkpoint.  Passes over the large population
// at N threads fill the run; after each, the small check population runs
// at 1 thread.
//
// The benchmark composes the pipeline from the layers' public calls, one
// chip per task on the global executor, so a chip lives only while its task
// runs, and each task keeps only its chip's per-checkpoint results.
// Reductions run serially in chip order.  On the small check population
// they add every RO's shift exactly as the scenarios do, which makes the
// composed series bit-identical to run_aging_series and
// run_frequency_degradation there; on the large population each chip's
// shifts are summarised in its task and the summaries merged in chip order.

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "puf/ro_puf.hpp"
#include "sim/parallel.hpp"
#include "sim/scenarios.hpp"

namespace perfbench {

namespace {

using namespace aropuf;

constexpr double kCheckpoints[] = {1.0, 2.0, 4.0, 6.0, 8.0, 10.0};
constexpr std::size_t kCheckpointCount = std::size(kCheckpoints);

/// Per-design output of one pass, reduced like the scenarios reduce.
struct DesignSeries {
  std::vector<double> mean_flip_percent;
  std::vector<double> max_flip_percent;
  std::vector<double> mean_freq_shift_percent;

  bool operator==(const DesignSeries& o) const {
    const auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    return same(mean_flip_percent, o.mean_flip_percent) &&
           same(max_flip_percent, o.max_flip_percent) &&
           same(mean_freq_shift_percent, o.mean_freq_shift_percent);
  }
};

struct ChipTrace {
  double chip_seconds = 0.0;                     // the whole task
  std::array<double, kCheckpointCount> seconds{};  // per checkpoint
  std::vector<double> flip_percent;              // per checkpoint
  std::vector<std::vector<double>> freq_shift;   // per checkpoint, per RO (check pass only)
  std::vector<RunningStats> freq_shift_stats;    // per checkpoint (large pass only)
};

/// Timings of a pass's chips, in chip order.
struct PassTimes {
  std::vector<double> chip_s;        ///< wall time of each chip's task
  std::vector<double> checkpoint_s;  ///< wall time of each chip checkpoint
};

/// One pass over `chips` dies of each design; returns {conventional, ARO}.
/// `keep_ro_shifts` keeps every RO's shift for the reduction the scenarios
/// make; otherwise each chip keeps one summary per checkpoint.  Appends its
/// timings to `times`.
std::vector<DesignSeries> run_pass(const PopulationConfig& pop, int chips, int threads,
                                   bool keep_ro_shifts, PassTimes& times) {
  const PufConfig designs[] = {PufConfig::conventional(), PufConfig::aro()};
  const RngFabric fabric(pop.seed);
  const OperatingPoint op = nominal_operating_point(pop.tech);
  const auto per_design = static_cast<std::size_t>(chips);
  std::vector<ChipTrace> traces(2 * per_design);
  {
    const Region region(Layer::kSim, "sim.parallel_for", threads);
    parallel_for_chips(traces.size(), [&](std::size_t i) {
      const TaskSpan task(Layer::kHarness, "aging.chip", i);
      const std::int64_t chip_start = now_ns();
      const std::size_t c = i % per_design;
      const PufConfig& cfg = designs[i / per_design];
      std::optional<RoPuf> chip;
      {
        const Span span(Layer::kVariation, "variation.ro_puf", i);
        count(Count::kChipsBuilt);
        chip.emplace(pop.tech, cfg, fabric.child("chip", c));
      }
      const auto ros = static_cast<std::uint64_t>(cfg.num_ros);
      std::vector<double> fresh;
      {
        const Span span(Layer::kCircuit, "circuit.fresh_ro_frequencies", i);
        count(Count::kRoEvals, ros);
        fresh = chip->fresh_ro_frequencies(op);
      }
      BitVector golden;
      {
        const Span span(Layer::kPuf, "puf.evaluate", i);
        count(Count::kPufEvals);
        golden = chip->evaluate(op, 0);
      }
      ChipTrace& out = traces[i];
      double previous = 0.0;
      std::uint64_t eval_index = 1;
      for (const double y : kCheckpoints) {
        const std::int64_t t0 = now_ns();
        {
          const Span span(Layer::kDevice, "device.age_years", i);
          count(Count::kAgeCalls);
          chip->age_years(y - previous);
        }
        std::vector<double> shift;
        {
          const Span span(Layer::kCircuit, "circuit.ro_frequencies", i);
          count(Count::kRoEvals, ros);
          shift = chip->ro_frequencies(op);
        }
        for (std::size_t r = 0; r < shift.size(); ++r) {
          shift[r] = (fresh[r] - shift[r]) / fresh[r] * 100.0;
        }
        if (keep_ro_shifts) {
          out.freq_shift.push_back(std::move(shift));
        } else {
          RunningStats stats;
          for (const double v : shift) stats.add(v);
          out.freq_shift_stats.push_back(stats);
        }
        BitVector response;
        {
          const Span span(Layer::kPuf, "puf.evaluate", i);
          count(Count::kPufEvals);
          response = chip->evaluate(op, eval_index);
        }
        {
          const Span span(Layer::kMetrics, "metrics.fractional_hamming_distance", i);
          count(Count::kMetricsCalls);
          out.flip_percent.push_back(fractional_hamming_distance(golden, response) * 100.0);
        }
        out.seconds[eval_index - 1] = seconds_between(t0, now_ns());
        previous = y;
        ++eval_index;
      }
      out.chip_seconds = seconds_between(chip_start, now_ns());
    });
  }

  const Span span(Layer::kHarness, "aging.reduce");
  std::vector<DesignSeries> series(2);
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t k = 0; k < kCheckpointCount; ++k) {
      RunningStats flips;
      RunningStats shift;
      for (std::size_t c = 0; c < per_design; ++c) {
        const ChipTrace& t = traces[d * per_design + c];
        flips.add(t.flip_percent[k]);
        if (keep_ro_shifts) {
          for (const double s : t.freq_shift[k]) shift.add(s);
        } else {
          shift.merge(t.freq_shift_stats[k]);
        }
      }
      series[d].mean_flip_percent.push_back(flips.mean());
      series[d].max_flip_percent.push_back(flips.max());
      series[d].mean_freq_shift_percent.push_back(shift.mean());
    }
  }
  for (const ChipTrace& t : traces) {
    times.chip_s.push_back(t.chip_seconds);
    times.checkpoint_s.insert(times.checkpoint_s.end(), t.seconds.begin(), t.seconds.end());
  }
  return series;
}

}  // namespace

void run_aging_fleet(const Options& opt, Result& result) {
  PopulationConfig pop;
  pop.seed = opt.seed;
  const int chips = opt.tiny ? 40 : 1000;
  const int check_chips = opt.tiny ? 16 : 40;

  // Set-up: the thread pool and the pipeline on the small check population
  // (lazy initialisation, allocator warm-up).  Its output is the one checked
  // against the scenario functions below.
  std::vector<DesignSeries> small;
  PopulationConfig small_pop = pop;
  small_pop.chips = check_chips;
  const SetUpTimes setup = time_set_up([&] {
    ParallelExecutor::set_global_thread_count(opt.threads);
    PassTimes unused;
    small = run_pass(small_pop, check_chips, opt.threads, true, unused);
  });

  const auto evals = static_cast<double>(2 * chips * static_cast<int>(kCheckpointCount));
  std::vector<double> pass_rates;
  PassTimes times;
  PassTimes one_times;
  std::vector<DesignSeries> first;
  const CycleLog log = run_cycles(
      opt, 2,
      [&] {
        const std::int64_t t0 = now_ns();
        auto series = run_pass(pop, chips, opt.threads, false, times);
        pass_rates.push_back(evals / seconds_between(t0, now_ns()));
        result.ops(static_cast<std::uint64_t>(evals));
        if (first.empty()) {
          first = std::move(series);
        } else {
          if (opt.inject == "aging.pass") series[0].mean_flip_percent[0] += 1e-9;
          result.check(series == first, "fleet series changed between passes");
        }
      },
      // The 1-thread share: the check population's pass, which must equal
      // the N-thread one from set-up.
      [&](int) {
        ParallelExecutor::set_global_thread_count(1);
        auto series = run_pass(small_pop, check_chips, 1, true, one_times);
        ParallelExecutor::set_global_thread_count(opt.threads);
        result.ops(static_cast<std::uint64_t>(2 * check_chips) * kCheckpointCount);
        if (opt.inject == "aging.identity") series[0].mean_flip_percent[0] += 1e-9;
        result.check(series == small, "1-thread pass of the check population differs from the " +
                                          std::to_string(opt.threads) + "-thread pass");
      });

  // Output checks (untimed).  Calibration bands of the 10-year flips, from
  // tests/sim/calibration_test.cpp.
  const double conv_eol = first[0].mean_flip_percent.back();
  const double aro_eol = first[1].mean_flip_percent.back();
  const double conv_lo = opt.inject == "aging.band" ? 90.0 : 25.0;
  result.check(conv_eol > conv_lo && conv_eol < 40.0,
               "fleet 10-year flips, conventional = " + std::to_string(conv_eol));
  result.check(aro_eol > 4.0 && aro_eol < 12.0,
               "fleet 10-year flips, ARO = " + std::to_string(aro_eol));

  // The composed pipeline must equal the scenario functions on the same
  // seed and population.
  PopulationConfig ref_pop = small_pop;
  if (opt.inject == "aging.reference") ref_pop.seed += 1;
  const PufConfig designs[] = {PufConfig::conventional(), PufConfig::aro()};
  for (std::size_t d = 0; d < 2; ++d) {
    const AgingSeries aging = run_aging_series(ref_pop, designs[d], kCheckpoints);
    const FrequencySeries freq = run_frequency_degradation(ref_pop, designs[d], kCheckpoints);
    DesignSeries ref{aging.mean_flip_percent, aging.max_flip_percent,
                     freq.mean_freq_shift_percent};
    result.check(ref == small[d], designs[d].label +
                                      ": composed pipeline differs from run_aging_series / "
                                      "run_frequency_degradation");
  }

  JsonValue::Object headline;
  headline["flips_10y_conventional_pct"] = JsonValue(conv_eol);
  headline["flips_10y_aro_pct"] = JsonValue(aro_eol);
  headline["freq_shift_10y_conventional_pct"] = JsonValue(first[0].mean_freq_shift_percent.back());
  headline["freq_shift_10y_aro_pct"] = JsonValue(first[1].mean_freq_shift_percent.back());
  result.info("headline", JsonValue(std::move(headline)));
  result.info("chips_per_design", JsonValue(chips));

  report_set_up(result, setup);
  // Throughput is taken from the median chip: a chip's task takes about
  // 5 ms, so a CPU the host takes away for a while slows a few chips, where
  // it would slow the whole pass (and the pass's rate is in the report).
  // For the same reason the latency tail stops at p90: a chip checkpoint
  // takes about 0.6 ms, so at a few percent of host steal more than 1 % of
  // them wait for a descheduled CPU, and p99 read 0.77 ms at 0.3 % steal but
  // 1.55 ms at 7.6 %.
  const double per_chip = static_cast<double>(kCheckpointCount);
  const double tail_q = std::min(0.90, tail_quantile(times.checkpoint_s.size()));
  report_ops(result, opt.threads * per_chip / median(times.chip_s),
             per_chip / median(one_times.chip_s), quantile(times.checkpoint_s, 0.50),
             quantile(times.checkpoint_s, tail_q), tail_q, times.checkpoint_s.size());
  result.info("pass_chip_checkpoints_per_s", samples(pass_rates));
  if (opt.trace) add_layer_metrics(result, log);
}

}  // namespace perfbench
