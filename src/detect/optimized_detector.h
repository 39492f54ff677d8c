// The Optimized collusion detection method, paper Sec. IV-C.
//
// Replaces the Basic method's O(n) complement row scan with the closed-form
// Formula (2) bound: for a high-reputed node n_i and a frequent rater n_j,
// the pair is suspicious when the node's summation reputation over the
// window falls inside
//
//   [ 2 T_a N_(i,j) - N_i ,  2 T_b (N_i - N_(i,j)) + 2 N_(i,j) - N_i ]
//
// which needs only R_i, N_i and N_(i,j) — values the manager already holds.
// The symmetric condition is then checked for n_j, and the pair is flagged
// when both hold. Complexity O(m n) (Proposition 4.2).
//
// Two complement modes (DetectorConfig::joint_complement):
//  * true (default) — the joint-complement generalization: C3 from the
//    pair cell's positive count and C2 from the row's incrementally-
//    maintained frequent-rater aggregate, both O(1) per pair. Evaluates
//    exactly the same predicate as the Basic method in the same mode, so
//    the two methods flag identical pairs by construction.
//  * false — the paper-literal Formula (2) bound above. That bound
//    describes a superset of the (a, b) region the paper-literal Basic
//    predicate accepts (any a >= T_a, b < T_b point satisfies it, but
//    boundary mixtures with a < T_a compensated by larger b can also fall
//    inside): Optimized never misses a pair Basic finds (tested), and on
//    collusion workloads the two flag identical pairs.
//
// Neutral (0) ratings: Formula (1) is derived for +/-1 ratings. Neutrals
// inflate N_i without moving R_i, which widens the admitted interval; the
// P2P simulation model emits only +/-1 ratings, and the trace layer maps
// marketplace scores to +/-1 before detection, so the bound is exact where
// it is used.
//
// The implementation is the shared range-partitioned sweep
// detect::sweep_optimized (detect/pair_sweep.h), which walks only each
// row's stored cells and charges the per-pair reads analytically;
// on_epoch() runs it over the snapshot, one matrix or S shard matrices
// alike, plus the accomplice fixpoint (detect/accomplice_exchange.h).
#pragma once

#include "detect/accomplice_exchange.h"
#include "detect/detector.h"
#include "detect/pair_sweep.h"

namespace p2prep::detect {

class OptimizedDetector final : public Detector {
 public:
  using Detector::Detector;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "optimized";
  }

  [[nodiscard]] core::DetectionReport on_epoch(
      const EpochSnapshot& snapshot) override {
    const ScanTimer timer(stats_);
    core::DetectionReport report = sweep_optimized(snapshot, config_);
    stats_.accomplice_rounds = propagate_accomplices(snapshot, config_, report);
    return report;
  }
};

}  // namespace p2prep::detect
