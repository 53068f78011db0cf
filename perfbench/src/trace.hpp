// Benchmark-side tracing: spans around every call the benchmark makes into a
// library layer, plus counts recorded at the same boundaries.
//
// Tracing is off unless enable_tracing(true) ran; a disabled Span is one
// predictable branch.  When on, every span updates a per-thread ledger of
// self time (span duration minus the time of its child spans) by layer, and
// the first kRetainedSpansPerThread spans of each thread are kept in memory
// for the Chrome-trace file written when the run ends.
//
// Parallel regions: work the benchmark fans out (chips over the executor,
// verify clients over their threads) runs inside a Region.  A task's spans
// count 1/T of their self time toward wall-clock attribution (T = threads
// in the region), and the region itself keeps the rest of its wall time
// (T x wall minus task time, divided by T: scheduling, imbalance, idle).
// So the per-layer wall attributions of a run sum to its wall time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace perfbench {

/// Layers of the program (modules under src/), plus the benchmark itself.
enum class Layer : std::uint8_t {
  kHarness,
  kVariation,
  kDevice,
  kCircuit,
  kPuf,
  kMetrics,
  kEcc,
  kKeygen,
  kAuth,
  kAttack,
  kSim,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// Named counts recorded next to the spans (only while tracing).
enum class Count : std::uint8_t {
  kChipsBuilt,       ///< dies constructed (variation)
  kAgeCalls,         ///< aging steps applied (device)
  kRoEvals,          ///< ring-oscillator frequency evaluations (circuit)
  kPufEvals,         ///< response evaluations (puf)
  kMetricsCalls,     ///< metric/statistic calls (metrics)
  kEccSearches,      ///< min-area code searches (ecc)
  kEccSearchFails,   ///< searches that found no scheme
  kKeygenRecons,     ///< fuzzy-extractor reconstructions
  kKeygenReconsOk,   ///< reconstructions that returned the enrolled key
  kAuthVerifies,     ///< Authenticator::verify calls
  kAuthVerifyFails,  ///< verify calls that returned no value
  kCount,
};

inline constexpr std::size_t kCountKinds = static_cast<std::size_t>(Count::kCount);

void enable_tracing(bool on);
[[nodiscard]] bool tracing_enabled() noexcept;

/// Adds `n` to a count (no-op while tracing is off).
void count(Count what, std::uint64_t n = 1);

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns() noexcept;

class Region;

/// RAII span.  `group` ties the spans of one chip or one request together.
class Span {
 public:
  Span(Layer layer, const char* name, std::uint64_t group = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// A fan-out from the calling thread: open it around the parallel loop and
/// wrap each task body in a TaskSpan.
class Region {
 public:
  Region(Layer layer, const char* name, int threads);
  ~Region();
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

 private:
  friend class TaskSpan;
  bool active_ = false;
  std::uint64_t id_ = 0;
  int threads_ = 1;
  std::int64_t t0_ = 0;
  std::atomic<std::int64_t> task_ns_{0};
  Region* outer_ = nullptr;
};

/// Root span of one task of the innermost open Region (any thread).
class TaskSpan {
 public:
  TaskSpan(Layer layer, const char* name, std::uint64_t group);
  ~TaskSpan();
  TaskSpan(const TaskSpan&) = delete;
  TaskSpan& operator=(const TaskSpan&) = delete;

 private:
  bool active_ = false;
};

/// Ledger summed over every thread.
struct Ledger {
  /// Wall-clock seconds attributed to each layer (weighted self time).
  std::array<double, kLayerCount> wall_s{};
  /// Unweighted self thread-seconds per layer (per-call cost).
  std::array<double, kLayerCount> thread_s{};
  /// Counts by Count kind.
  std::array<std::uint64_t, kCountKinds> counts{};
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;
};

/// Wall-attributed seconds of all spans with this name.
[[nodiscard]] double named_wall_s(const std::string& name);
/// Inclusive seconds of all spans with this name (duration, not self).
[[nodiscard]] double named_inclusive_s(const std::string& name);

[[nodiscard]] Ledger ledger();

/// Writes the retained spans as a Chrome trace.  False on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench
