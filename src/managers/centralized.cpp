#include "managers/centralized.h"

#include <utility>

namespace p2prep::managers {

CentralizedManager::CentralizedManager(std::size_t num_nodes,
                                       reputation::ReputationEngine& engine,
                                       core::DetectorConfig detector_config)
    : engine_(engine),
      detector_config_(detector_config),
      matrix_(num_nodes, rating::ScanCost::kFullRow) {
  engine_.resize(matrix_.size());
  matrix_.set_frequency_threshold(detector_config_.frequency_min);
}

CentralizedManager::CentralizedManager(
    std::shared_ptr<const rating::RowIndex> index, std::uint32_t part,
    reputation::ReputationEngine& engine, core::DetectorConfig detector_config)
    : engine_(engine),
      detector_config_(detector_config),
      matrix_(std::move(index), part, rating::ScanCost::kStored) {
  engine_.resize(matrix_.size());
  matrix_.set_frequency_threshold(detector_config_.frequency_min);
}

bool CentralizedManager::ingest(const rating::Rating& r) {
  if (r.rater == r.ratee || r.rater >= matrix_.size() ||
      !matrix_.owns(r.ratee))
    return false;
  matrix_.add_rating(r.ratee, r.rater, r.score);
  engine_.ingest(r);
  return true;
}

void CentralizedManager::refresh_reputations() {
  for (const rating::NodeId i : matrix_.owned_nodes()) refresh_reputation(i);
}

void CentralizedManager::update_reputations() {
  engine_.update_epoch();
  refresh_reputations();
}

void CentralizedManager::reset_window() {
  matrix_.clear_window();
  refresh_reputations();
}

core::DetectionReport CentralizedManager::run_detection(
    detect::Detector& detector) {
  detect::EpochSnapshot snap = detect::EpochSnapshot::of(matrix_);
  if (matrix_.dirty_tracking())
    snap.dirty.push_back(matrix_.take_dirty_cells());
  core::DetectionReport report = detector.on_epoch(snap);
  apply_verdicts(report.colluders());
  return report;
}

void CentralizedManager::apply_verdicts(
    std::span<const rating::NodeId> flagged) {
  for (const rating::NodeId id : flagged) {
    if (!matrix_.owns(id)) continue;
    detected_.insert(id);
    engine_.reset_reputation(id);
  }
  if (!flagged.empty()) update_reputations();
}

}  // namespace p2prep::managers
