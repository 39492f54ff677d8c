// Range-partitioned pair sweeps (DESIGN.md §15): the one implementation
// of the paper's Basic / Optimized pairwise scans.
//
// Generalized over an EpochSnapshot: every quantity about node i (row,
// totals, frequent aggregate, window reputation) is read from
// snapshot.matrix_of(i) — the owner shard's matrix — so the same code
// serves one matrix (detect::{Basic,Optimized}Detector in the managers,
// the simulator and per-shard epochs) or S shard matrices (the service's
// global epoch). A multi-matrix snapshot must carry an owner per node
// (EpochSnapshot::check_owners); otherwise both sweeps throw
// std::invalid_argument before scanning.
//
// Cost: every counter equals what the paper-literal serial loops charge
// on one matrix holding all rows, under either scan-cost rule
// (tests/detect/pair_sweep_test.cpp). The Basic method's per-pair
// complement scan of row i is charged from its stored-cell count
// (RatingMatrix::stored_cells) while its sums come from the row
// aggregates; matrices built with a frequency threshold other than T_N
// recompute the frequent-rater aggregate from the row.
//
// Parallelism: the outer node index [0, n) is split into contiguous
// ranges, one task per range, run through snapshot.executor (serial when
// null). Each task fills a task-local sub-report; the merge concatenates
// pairs in range order and sums the cost counters, so the merged report
// is identical to a serial pass for ANY task count — every (ordered or
// unordered) pair is examined by exactly one range, charging the same
// scans/checks wherever it runs, and canonicalize() fixes the final
// ordering regardless. This is the determinism argument the
// parallel-vs-serial differential suite (tests/differential/
// parallel_epoch_test.cpp) enforces byte-for-byte.
#pragma once

#include "core/config.h"
#include "core/evidence.h"
#include "detect/snapshot.h"

namespace p2prep::detect {

/// Basic-method sweep: each unordered pair examined once, from its first
/// high-reputed endpoint in ascending order (the paper's checked-pair
/// marks), with the paper's complement row scan charged per direction.
/// Returns the canonicalized report (pairs only — rings never come from
/// the pairwise methods).
[[nodiscard]] core::DetectionReport sweep_basic(
    const EpochSnapshot& snapshot, const core::DetectorConfig& config);

/// Optimized-method sweep: all ordered (i, j) with the incremental-bound
/// predicates; a mutual pair surfaces from both sides and canonicalize()
/// dedups. Returns the canonicalized report.
[[nodiscard]] core::DetectionReport sweep_optimized(
    const EpochSnapshot& snapshot, const core::DetectorConfig& config);

}  // namespace p2prep::detect
