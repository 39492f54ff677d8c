// Centralized reputation manager (paper Sec. IV-B, the Amazon-style
// deployment): one manager ingests every rating, computes global
// reputations through a pluggable ReputationEngine, and periodically runs a
// collusion detector over its rating matrix. Detected colluders have their
// reputations reset to zero (the paper's countermeasure).
//
// The manager maintains the RatingMatrix directly as ratings arrive — O(1)
// per rating including the frequent-rater aggregates — and refreshes only
// the global-reputation column after each engine epoch (O(owned nodes)).
// That is the state model the paper's Optimized method assumes the manager
// to have ("quantities the manager already holds"). A standalone manager
// covers every node; a service shard's manager covers one partition of
// the service's shared rating::RowIndex.
#pragma once

#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "detect/detector.h"
#include "rating/matrix.h"
#include "reputation/engine.h"

namespace p2prep::managers {

class CentralizedManager {
 public:
  /// A standalone manager over every node. Its matrix charges the
  /// paper's full-row scans (rating::ScanCost::kFullRow). `engine`
  /// computes the global reputations the detector filters on (T_R); not
  /// owned, must outlive the manager.
  CentralizedManager(std::size_t num_nodes,
                     reputation::ReputationEngine& engine,
                     core::DetectorConfig detector_config);
  /// A manager for partition `part` of `index` (a service shard): its
  /// matrix holds rows for that partition's nodes only, charges row scans
  /// by stored cells (rating::ScanCost::kStored), and it accepts ratings
  /// only for them. `engine` must cover the same partition.
  CentralizedManager(std::shared_ptr<const rating::RowIndex> index,
                     std::uint32_t part, reputation::ReputationEngine& engine,
                     core::DetectorConfig detector_config);

  /// Records one rating in both the matrix and the engine. O(1). False
  /// for a self-rating, an id out of range or a ratee the partition does
  /// not own.
  bool ingest(const rating::Rating& r);

  /// Ends a reputation-update period: engine epoch + a refresh of the
  /// matrix's reputation column, O(owned nodes).
  void update_reputations();

  /// Starts a new detection window: clears the matrix's pair counters
  /// (reputations are refreshed from the engine).
  void reset_window();

  /// Re-reads owned node i's detection reputation from the engine into
  /// the matrix's reputation column without running an engine epoch (a
  /// shard handoff's receiver).
  void refresh_reputation(rating::NodeId i) {
    matrix_.set_global_reputation(i, engine_.detection_reputation(i),
                                  detector_config_.high_rep_threshold);
  }

  /// Re-slots the matrix for `index` (see RatingMatrix::repartition); the
  /// caller re-slots the engine.
  void repartition(std::shared_ptr<const rating::RowIndex> index) {
    matrix_.repartition(std::move(index));
  }

  // --- Checkpoint restore hooks (service layer) ---

  /// Reinstalls one window cell exactly as checkpointed. The manager must
  /// not have seen ratings for that (ratee, rater) cell this window.
  void restore_window_cell(rating::NodeId ratee, rating::NodeId rater,
                           const rating::PairStats& stats) {
    matrix_.restore_cell(ratee, rater, stats);
  }
  /// Sizes row `ratee` for `cells` more restored cells exactly, so the
  /// replay that follows leaves no growth slack.
  void reserve_window_row(rating::NodeId ratee, std::size_t cells) {
    matrix_.reserve_cells(ratee, cells);
  }
  /// Reinstalls the detected-colluders set.
  void restore_detected(const std::vector<rating::NodeId>& nodes) {
    detected_.insert(nodes.begin(), nodes.end());
  }

  // --- Shard handoff hooks (elastic resharding) ---

  /// Extracts the window row of `ratee` from the matrix, clearing it
  /// here; the receiving shard reinstalls each cell via
  /// restore_window_cell(). Ascending rater order.
  [[nodiscard]] std::vector<std::pair<rating::NodeId, rating::PairStats>>
  take_window_row(rating::NodeId ratee) {
    return matrix_.take_row(ratee);
  }
  /// Removes `id` from the detected set; true when it was present (the
  /// receiving shard then restore_detected()s it).
  bool take_detected(rating::NodeId id) { return detected_.erase(id) > 0; }

  /// Runs one detection pass over the live matrix — its dirty delta
  /// attached when tracking is on — then apply_verdicts() on every
  /// implicated node, pair and ring members alike.
  core::DetectionReport run_detection(detect::Detector& detector);

  /// The paper's suppression: records and resets every node of `flagged`
  /// this manager owns, then runs one reputation update when `flagged`
  /// is non-empty, so the published view reflects the resets. A global
  /// epoch hands every shard the same service-wide list.
  void apply_verdicts(std::span<const rating::NodeId> flagged);

  // --- Dirty-cell tracking passthroughs (incremental detectors) ---

  /// Turns on matrix dirty-cell recording (detect::Detector hosts call
  /// this once when the detector wants_dirty_tracking()).
  void enable_dirty_tracking() { matrix_.set_dirty_tracking(true); }
  /// Drains the matrix's dirty delta for a multi-matrix epoch snapshot.
  [[nodiscard]] rating::DirtyCells take_dirty_cells() {
    return matrix_.take_dirty_cells();
  }

  [[nodiscard]] const rating::RatingMatrix& matrix() const noexcept {
    return matrix_;
  }
  /// Nodes flagged by any detection pass so far.
  [[nodiscard]] const std::unordered_set<rating::NodeId>& detected()
      const noexcept {
    return detected_;
  }

 private:
  /// refresh_reputation() for every owned node.
  void refresh_reputations();

  reputation::ReputationEngine& engine_;
  core::DetectorConfig detector_config_;
  rating::RatingMatrix matrix_;
  std::unordered_set<rating::NodeId> detected_;
};

}  // namespace p2prep::managers
