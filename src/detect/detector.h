// detect::Detector — the one detector interface (DESIGN.md §12).
//
// A detector is an epoch-driven object: the host (centralized manager,
// simulator, service shard, global epoch runner, CLI, bench) freezes the
// rating state into an EpochSnapshot and calls on_epoch(), which returns
// a core::DetectionReport with pair and/or ring evidence. A detector may
// keep state between epochs — the streaming RingDetector caches its
// boost-edge graph and re-derives only dirtied cells — so one instance is
// owned per host and on_epoch is non-const. Hosts query
// wants_dirty_tracking() once at construction to decide whether to enable
// matrix dirty-cell recording.
//
// Invariant every implementation must keep: the report for a given
// snapshot is byte-identical (after format_epoch_report) whether the
// detector arrived at it incrementally or from scratch — recovery replay
// and the differential tests depend on it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "core/config.h"
#include "core/evidence.h"
#include "detect/snapshot.h"

namespace p2prep::detect {

/// Cheap per-instance gauges, refreshed by every on_epoch() call. The
/// service surfaces these through ServiceMetrics / GetMetrics.
struct DetectorStats {
  std::uint64_t rings_found = 0;   ///< Rings in the last report.
  std::uint64_t largest_ring = 0;  ///< Members of the biggest ring seen.
  std::uint64_t scan_us = 0;       ///< Wall time of the last on_epoch().
  /// Accomplice-exchange rounds to fixpoint in the last pass (0 when the
  /// flag is off or nothing seeded the walk).
  std::uint64_t accomplice_rounds = 0;
  bool incremental = false;        ///< Last pass reused cached state.
};

class Detector {
 public:
  explicit Detector(core::DetectorConfig config) : config_(config) {}
  virtual ~Detector() = default;

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  /// The name detect::make_detector builds this detector under ("basic",
  /// "optimized", "group" or "ring").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when the detector exploits matrix dirty-cell deltas; the host
  /// should enable rating::RatingMatrix::set_dirty_tracking and pass
  /// take_dirty_cells() output in each snapshot.
  [[nodiscard]] virtual bool wants_dirty_tracking() const noexcept {
    return false;
  }

  /// Runs one detection pass over the frozen snapshot. The report is
  /// canonicalized and deterministic for a given snapshot.
  [[nodiscard]] virtual core::DetectionReport on_epoch(
      const EpochSnapshot& snapshot) = 0;

  [[nodiscard]] const DetectorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const core::DetectorConfig& config() const noexcept {
    return config_;
  }

 protected:
  /// Stamps stats_.scan_us with its own lifetime: one per on_epoch().
  class ScanTimer {
   public:
    explicit ScanTimer(DetectorStats& stats)
        : stats_(stats), start_(std::chrono::steady_clock::now()) {}
    ~ScanTimer() {
      stats_.scan_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
    ScanTimer(const ScanTimer&) = delete;
    ScanTimer& operator=(const ScanTimer&) = delete;

   private:
    DetectorStats& stats_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Refreshes the ring gauges from a finished pass's report.
  void record_rings(const core::DetectionReport& report) {
    stats_.rings_found = report.rings.size();
    for (const auto& r : report.rings) {
      stats_.largest_ring =
          std::max<std::uint64_t>(stats_.largest_ring, r.members.size());
    }
  }

  core::DetectorConfig config_;
  DetectorStats stats_;
};

}  // namespace p2prep::detect
