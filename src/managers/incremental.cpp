#include "managers/incremental.h"

namespace p2prep::managers {

IncrementalCentralizedManager::IncrementalCentralizedManager(
    std::size_t num_nodes, reputation::ReputationEngine& engine,
    core::DetectorConfig detector_config, rating::MatrixBackend backend)
    : num_nodes_(num_nodes),
      engine_(engine),
      detector_config_(detector_config),
      matrix_(num_nodes, backend) {
  engine_.resize(num_nodes);
  matrix_.set_frequency_threshold(detector_config_.frequency_min);
}

bool IncrementalCentralizedManager::ingest(const rating::Rating& r) {
  if (r.rater == r.ratee || r.rater >= num_nodes_ || r.ratee >= num_nodes_)
    return false;
  matrix_.add_rating(r.ratee, r.rater, r.score);
  engine_.ingest(r);
  return true;
}

void IncrementalCentralizedManager::refresh_reputations() {
  for (rating::NodeId i = 0; i < num_nodes_; ++i) {
    matrix_.set_global_reputation(i, engine_.detection_reputation(i),
                                  detector_config_.high_rep_threshold);
  }
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
