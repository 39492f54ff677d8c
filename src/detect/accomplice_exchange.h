// Accomplice propagation via flagged-set exchange (DESIGN.md §15).
//
// The paper claims its methods "can detect colluders even when they
// compromise pretrusted high-reputed nodes" (Fig. 11). A compromised
// pretrusted node cannot satisfy C2 — everyone else rates it positively —
// so the pairwise predicate alone never flags it. This pass flags, as a
// fixpoint, every node in a mutual frequent mostly-positive rating
// relationship (C3 + C4 in both directions) with an already-flagged one.
// Honest client->server rating edges are one-directional in the paper's
// model, so they cannot satisfy the mutual-frequency requirement.
//
// A pair's two directions may live in two shard matrices (cell(d, k) in
// owner(d)'s row d, cell(k, d) in owner(k)'s row k), so the fixpoint runs
// as an iterated frontier exchange over an EpochSnapshot — one matrix or
// S shard matrices alike:
//
//   round r: every frontier node d is scanned against its OWNER matrix's
//   row d; a candidate k passes when both directions are frequent and
//   mostly positive (the mutual-boosting signature, C3 + C4 in both
//   matrices); newly flagged nodes form round r+1's frontier. Rounds
//   repeat until no new node is flagged — the global fixpoint.
//
// Output equivalence: the flagged set is the closure of the seed set
// under the symmetric mutual-boosting relation, which is independent of
// traversal order and of how rows are spread over shard matrices, and
// DetectionReport::canonicalize() erases any ordering difference, so the
// reports are byte-identical at any shard width
// (tests/service/accomplice_exchange_test.cpp).
//
// Each round's frontier is grouped by owner shard and the groups run as
// one task each through snapshot.executor (serial when null); candidate
// lists merge in shard-index order, so the evidence stream is
// deterministic even before canonicalization.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "core/evidence.h"
#include "detect/snapshot.h"

namespace p2prep::detect {

/// Extends `report` in place with accomplice pairs reachable from its
/// currently flagged nodes (pairs and ring members), across any number
/// of shard matrices. Charges scans/checks to report.cost.
/// Returns the number of exchange rounds run until the fixpoint (0 when
/// the flag is off or nothing was seeded). Canonicalizes the report.
/// Throws std::invalid_argument for a multi-matrix snapshot without an
/// owner per node.
std::uint32_t propagate_accomplices(const EpochSnapshot& snapshot,
                                    const core::DetectorConfig& config,
                                    core::DetectionReport& report);

}  // namespace p2prep::detect
