// Centralized reputation manager (paper Sec. IV-B, the Amazon-style
// deployment): one manager ingests every rating, computes global
// reputations through a pluggable ReputationEngine, and periodically runs a
// collusion detector over its rating matrix. Detected colluders have their
// reputations suppressed to zero (the paper's countermeasure).
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "detect/detector.h"
#include "rating/matrix.h"
#include "rating/store.h"
#include "reputation/engine.h"

namespace p2prep::managers {

class CentralizedManager {
 public:
  /// `engine` computes the global reputations the detector filters on
  /// (T_R); not owned, must outlive the manager.
  CentralizedManager(std::size_t num_nodes,
                     reputation::ReputationEngine& engine,
                     core::DetectorConfig detector_config);

  /// Records one rating in both the ledger and the engine.
  bool ingest(const rating::Rating& r);

  /// Ends a reputation-update period: recomputes global reputations.
  void update_reputations();

  /// Starts a new detection window T (clears windowed pair counters).
  void reset_window();

  /// Snapshot of the manager's matrix as the detectors consume it.
  [[nodiscard]] rating::RatingMatrix snapshot() const;

  /// What happens to nodes a detection pass implicates.
  enum class SuppressionMode {
    kNone,   ///< Report only; reputations untouched.
    kReset,  ///< Paper semantics: zero the accumulated reputation now;
             ///< future ratings accumulate again (persistent colluders are
             ///< re-detected and re-zeroed every period).
    kPin,    ///< Permanently pin the published reputation to 0.
  };

  /// Runs one detection pass with the given detector over a one-matrix
  /// snapshot and applies `mode` to every implicated node (subject to the
  /// confirmation policy).
  core::DetectionReport run_detection(
      detect::Detector& detector,
      SuppressionMode mode = SuppressionMode::kReset);

  /// Confirmation policy: a pair must be flagged in `passes` consecutive
  /// detection passes before its nodes are suppressed. 1 (default) is the
  /// paper's immediate suppression; higher values trade detection latency
  /// for robustness against one-window statistical flukes. The returned
  /// report always contains the raw flags; only suppression is gated.
  void set_confirmation_passes(std::size_t passes) {
    confirmation_passes_ = passes == 0 ? 1 : passes;
  }
  [[nodiscard]] std::size_t confirmation_passes() const noexcept {
    return confirmation_passes_;
  }

  [[nodiscard]] const rating::RatingStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] reputation::ReputationEngine& engine() noexcept {
    return engine_;
  }
  [[nodiscard]] const core::DetectorConfig& detector_config() const noexcept {
    return detector_config_;
  }
  /// Nodes flagged by any detection pass so far.
  [[nodiscard]] const std::unordered_set<rating::NodeId>& detected()
      const noexcept {
    return detected_;
  }

 private:
  rating::RatingStore store_;
  reputation::ReputationEngine& engine_;
  core::DetectorConfig detector_config_;
  std::unordered_set<rating::NodeId> detected_;
  std::size_t confirmation_passes_ = 1;
  /// pair key -> consecutive passes flagged (confirmation policy state).
  std::unordered_map<std::uint64_t, std::size_t> pair_streaks_;
};

}  // namespace p2prep::managers
