#include "managers/incremental.h"

#include <utility>

namespace p2prep::managers {

IncrementalCentralizedManager::IncrementalCentralizedManager(
    std::size_t num_nodes, reputation::ReputationEngine& engine,
    core::DetectorConfig detector_config)
    : engine_(engine),
      detector_config_(detector_config),
      matrix_(num_nodes, rating::ScanCost::kFullRow) {
  engine_.resize(matrix_.size());
  matrix_.set_frequency_threshold(detector_config_.frequency_min);
}

IncrementalCentralizedManager::IncrementalCentralizedManager(
    std::shared_ptr<const rating::RowIndex> index, std::uint32_t part,
    reputation::ReputationEngine& engine, core::DetectorConfig detector_config)
    : engine_(engine),
      detector_config_(detector_config),
      matrix_(std::move(index), part, rating::ScanCost::kStored) {
  engine_.resize(matrix_.size());
  matrix_.set_frequency_threshold(detector_config_.frequency_min);
}

bool IncrementalCentralizedManager::ingest(const rating::Rating& r) {
  if (r.rater == r.ratee || r.rater >= matrix_.size() ||
      !matrix_.owns(r.ratee))
    return false;
  matrix_.add_rating(r.ratee, r.rater, r.score);
  engine_.ingest(r);
  return true;
}

void IncrementalCentralizedManager::refresh_reputations() {
  for (const rating::NodeId i : matrix_.owned_nodes()) refresh_reputation(i);
}

void IncrementalCentralizedManager::update_reputations() {
  engine_.update_epoch();
  refresh_reputations();
}

void IncrementalCentralizedManager::reset_window() {
  matrix_.clear_window();
  refresh_reputations();
}

core::DetectionReport IncrementalCentralizedManager::run_detection(
    detect::Detector& detector, CentralizedManager::SuppressionMode mode) {
  detect::EpochSnapshot snap = detect::EpochSnapshot::of(matrix_);
  if (matrix_.dirty_tracking())
    snap.dirty.push_back(matrix_.take_dirty_cells());
  core::DetectionReport report = detector.on_epoch(snap);
  if (mode == CentralizedManager::SuppressionMode::kNone) return report;
  const auto colluders = report.colluders();
  if (colluders.empty()) return report;
  for (rating::NodeId id : colluders) {
    detected_.insert(id);
    if (mode == CentralizedManager::SuppressionMode::kPin)
      engine_.suppress(id);
    else
      engine_.reset_reputation(id);
  }
  engine_.update_epoch();
  refresh_reputations();
  return report;
}

}  // namespace p2prep::managers
