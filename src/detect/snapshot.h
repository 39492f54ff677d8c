// EpochSnapshot: the frozen input a detect::Detector consumes at an epoch
// boundary. Standalone callers (CLI, bench, single-shard managers) pass
// one matrix; the service's global epoch passes every shard's matrix, with
// node i's row living in the matrix of its owner shard (the service's
// consistent-hash service::ShardMap, carried in `owners`). When the host
// tracks dirty cells, the per-matrix deltas ride along so incremental
// detectors can update cached state instead of rescanning the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "detect/executor.h"
#include "rating/matrix.h"
#include "rating/types.h"

namespace p2prep::detect {

struct EpochSnapshot {
  /// One matrix per shard (one entry for standalone callers). Non-owner
  /// rows are empty in each shard matrix, so whole-window scans can just
  /// walk every matrix.
  std::vector<const rating::RatingMatrix*> matrices;

  /// Per-matrix dirty deltas, aligned with `matrices`. Empty when the
  /// host does not track dirty cells; detectors then rebuild any cached
  /// state from scratch. A delta with complete == false forces the same.
  std::vector<rating::DirtyCells> dirty;

  /// Per-node owner table (node id -> index into `matrices`), one entry
  /// per node whenever there is more than one matrix. Not owned: the
  /// service views its live ShardMap's table, which the epoch's slot
  /// table keeps alive, so detectors resolve rows correctly across
  /// resizes without a copy per epoch. Ignored for single-matrix
  /// snapshots.
  std::span<const std::uint32_t> owners;

  /// Optional host-provided thread lender. Detectors that support
  /// range-partitioned scans run their tasks through it (merging results
  /// in task-index order, so the report stays byte-identical to a serial
  /// pass); null means serial. Not owned; valid for the on_epoch() call.
  Executor* executor = nullptr;

  /// Optional partner hook: on_partner_check(from, partner) runs each time
  /// a kernel, having passed the check from `from`'s side, reads
  /// `partner`'s row to repeat it from the other side — the point where
  /// a decentralized manager would ask the partner's manager (Sec. IV-D).
  /// Three sites call it: sweep_basic's second directional check,
  /// sweep_optimized's require_mutual branch (before the partner's C1
  /// read) and propagate_accomplices' read of cell(partner, from). It
  /// observes only: reports and cost counters are the same with or
  /// without it. Null everywhere but the decentralized managers; with an
  /// executor it may run concurrently from several tasks.
  std::function<void(rating::NodeId from, rating::NodeId partner)>
      on_partner_check;

  /// Calls on_partner_check(from, partner) when one is installed.
  void partner_check(rating::NodeId from, rating::NodeId partner) const {
    if (on_partner_check) on_partner_check(from, partner);
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return matrices.empty() ? 0 : matrices.front()->size();
  }

  /// Throws std::invalid_argument when a multi-matrix snapshot's owner
  /// table does not cover every node. Sweeps and exchanges call it once
  /// up front, so owner_of() can index the table unchecked.
  void check_owners() const {
    if (matrices.size() > 1 && owners.size() < num_nodes())
      throw std::invalid_argument(
          "multi-matrix EpochSnapshot needs an owner per node");
  }

  /// Index of the matrix owning node `id`'s row (0 for single-matrix
  /// snapshots). Requires check_owners() to have passed.
  [[nodiscard]] std::size_t owner_of(rating::NodeId id) const noexcept {
    return matrices.size() <= 1 ? 0 : owners[id];
  }

  [[nodiscard]] const rating::RatingMatrix& matrix_of(
      rating::NodeId id) const {
    return *matrices[owner_of(id)];
  }

  /// Convenience single-matrix snapshot (no dirty delta — full scan).
  [[nodiscard]] static EpochSnapshot of(const rating::RatingMatrix& m) {
    EpochSnapshot snap;
    snap.matrices.push_back(&m);
    return snap;
  }
};

}  // namespace p2prep::detect
