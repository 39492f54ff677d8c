// RingDetector: streaming detection of boost *cycles* of 3+ nodes — the
// collective shape the paper's pairwise predicates are structurally blind
// to (C2-C4 examine one partner at a time, so a ring that rates "around
// the circle" never concentrates any member's positives in one rater).
//
// Model. Directed boost graph over the window: edge u -> v exists when
// u's ratings of v in v's row cell a_(v,u) are frequent
// (N >= max(T_N, ring_internal_frequency_min)) and mostly positive
// (a >= T_a). A collusion ring is a directed cycle of boosts, i.e. a
// strongly connected component of this graph with >= ring_size_min
// members. 2-SCCs are exactly the mutual pairs the pairwise detectors
// own, so ring_size_min = 3 keeps ring reports disjoint from pair
// reports and pair-only traces free of ring flags. Each candidate SCC is
// then gated on the joint complement (C2 lifted to the member set): the
// ratings members received from NON-members must be mostly negative.
// The frequency filter applied while building edges IS the peel step —
// raising ring_internal_frequency_min peels weak edges until only
// tightly-boosting cycles stay strongly connected. No C1 gate: a ring
// can be caught while still accumulating reputation, before any member
// crosses T_R.
//
// Streaming. The edge set is cached between epochs. When every matrix in
// the snapshot carries a complete dirty delta, only the dirtied cells
// are re-derived (an edge is a pure function of its current cell, so the
// updated cache equals a from-scratch rebuild — byte-identical reports,
// tested); otherwise the cache is rebuilt from for_each_nonzero_cell.
// Tarjan's SCC then runs over the cached graph, whose size is O(boost
// edges), not O(nnz) — epoch cost O(changed nnz + boost graph), which
// bench_detector_scaling shows is >= 5x cheaper than a full rebuild at
// 1% dirty cells.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "detect/detector.h"
#include "rating/pair_stats.h"

namespace p2prep::detect {

class RingDetector final : public Detector {
 public:
  explicit RingDetector(core::DetectorConfig config) : Detector(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ring";
  }

  [[nodiscard]] bool wants_dirty_tracking() const noexcept override {
    return true;
  }

  [[nodiscard]] core::DetectionReport on_epoch(
      const EpochSnapshot& snapshot) override;

  /// Whether the last on_epoch() applied a dirty delta instead of
  /// rebuilding the edge cache (test/bench observability; also mirrored
  /// in stats().incremental).
  [[nodiscard]] bool last_pass_incremental() const noexcept {
    return stats_.incremental;
  }

  /// Cached boost edges (u -> v), for tests and bench counters.
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }

 private:
  /// Effective per-edge frequency threshold (the peel bound).
  [[nodiscard]] std::uint32_t ring_frequency() const noexcept;
  [[nodiscard]] bool edge_qualifies(
      const rating::PairStats& stats) const noexcept;

  void rebuild_edges(const EpochSnapshot& snapshot, util::CostCounter& cost);
  void apply_dirty(const EpochSnapshot& snapshot, util::CostCounter& cost);
  void find_rings(const EpochSnapshot& snapshot,
                  core::DetectionReport& report) const;

  /// Boost edges keyed (u << 32) | v for edge u -> v, valued with a copy
  /// of the qualifying cell a_(v,u). The copies stay equal to the live
  /// cells because every cell mutation arrives through the dirty delta.
  std::unordered_map<std::uint64_t, rating::PairStats> edges_;
  /// Matrices the cache was primed for (0 = cold); a topology change
  /// (shard count) forces a rebuild.
  std::size_t primed_for_ = 0;
};

}  // namespace p2prep::detect
