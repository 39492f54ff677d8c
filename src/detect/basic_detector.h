// The Basic ("Unoptimized") collusion detection method, paper Sec. IV-B.
//
// The manager scans the rating matrix top-down, row by row. For each
// high-reputed node n_i (C1) it examines every rater n_j: if n_j is also
// high-reputed and rates n_i frequently (C4, N_(i,j) >= T_N) and mostly
// positively (C3, a >= T_a), the manager scans the whole row of n_i
// *excluding* n_j to compute the complement fraction b; if b < T_b (C2) it
// repeats the entire check from n_j's side, and flags the pair when both
// directions hold. Checked pairs are marked (a_ij and a_ji) so they are not
// re-examined within the pass.
//
// The method's cost is the paper's: each examined pair charges the full
// scan of row i excluding column j — the O(n) inner step that makes the
// method O(m n^2) (Proposition 4.1). The implementation is the shared
// range-partitioned sweep detect::sweep_basic (detect/pair_sweep.h), which
// walks only each row's stored cells and charges those scans analytically;
// on_epoch() runs it over the snapshot, one matrix or S shard matrices
// alike, plus the accomplice fixpoint (detect/accomplice_exchange.h).
#pragma once

#include "detect/accomplice_exchange.h"
#include "detect/detector.h"
#include "detect/pair_sweep.h"

namespace p2prep::detect {

class BasicDetector final : public Detector {
 public:
  using Detector::Detector;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "basic";
  }

  [[nodiscard]] core::DetectionReport on_epoch(
      const EpochSnapshot& snapshot) override {
    const ScanTimer timer(stats_);
    core::DetectionReport report = sweep_basic(snapshot, config_);
    stats_.accomplice_rounds = propagate_accomplices(snapshot, config_, report);
    return report;
  }
};

}  // namespace p2prep::detect
