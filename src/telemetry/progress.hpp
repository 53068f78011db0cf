// Shard progress heartbeats and the run ETA.
//
// A worker reports progress as Heartbeat records; they travel to the
// coordinator as ARPF HEARTBEAT frames, whose JSON codec lives with the
// other control messages in net/frame.hpp (schema: DESIGN.md §11.3).
// `done`/`total` count abstract work units (the job defines them); `stage`
// is a short dotted label.  The coordinator's HUD turns them into an ETA
// with EtaEstimator.
#pragma once

#include <cstdint>
#include <string>

namespace aropuf::telemetry {

struct Heartbeat {
  std::int64_t ts_unix_ms = 0;  ///< wall-clock stamp of the beat
  int shard = 0;                ///< shard index of the reporting worker
  std::string stage;            ///< current milestone label
  std::int64_t done = 0;        ///< work units completed so far
  std::int64_t total = 0;       ///< work units this shard owns in total
  double elapsed_ms = 0.0;      ///< worker-local elapsed wall time
};

/// Wall-clock ETA over abstract work units, robust to resumed runs.  Work
/// that was already complete when tracking began (resumed/skipped shards) is
/// pinned as a baseline and excluded from the observed rate, so the estimate
/// reflects only work actually performed this run.  Without the baseline a
/// resumed run credits the skipped shards' units to the current elapsed
/// time, which inflates the apparent rate and prints a stale (far too
/// optimistic) ETA.
class EtaEstimator {
 public:
  /// Registers `units` of work that were already complete before tracking
  /// began.  Additive: call once per resumed shard or once with the sum.
  void add_baseline(double units) noexcept { baseline_ += units; }
  [[nodiscard]] double baseline() const noexcept { return baseline_; }

  /// Seconds remaining to reach `total` units given `done` units complete
  /// overall (baseline included) after `elapsed_s` seconds of this run.
  /// Returns a negative value while no meaningful estimate exists (<1% of
  /// the remaining work performed this run, or degenerate inputs).
  [[nodiscard]] double eta_seconds(double done, double total, double elapsed_s) const noexcept;

 private:
  double baseline_ = 0.0;
};

}  // namespace aropuf::telemetry
