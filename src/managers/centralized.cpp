#include "managers/centralized.h"

namespace p2prep::managers {

CentralizedManager::CentralizedManager(std::size_t num_nodes,
                                       reputation::ReputationEngine& engine,
                                       core::DetectorConfig detector_config)
    : store_(num_nodes),
      engine_(engine),
      detector_config_(detector_config) {
  engine_.resize(num_nodes);
}

bool CentralizedManager::ingest(const rating::Rating& r) {
  if (!store_.ingest(r)) return false;
  engine_.ingest(r);
  return true;
}

void CentralizedManager::update_reputations() { engine_.update_epoch(); }

void CentralizedManager::reset_window() { store_.reset_window(); }

rating::RatingMatrix CentralizedManager::snapshot() const {
  std::vector<double> detection_reps(store_.num_nodes());
  for (rating::NodeId i = 0; i < detection_reps.size(); ++i)
    detection_reps[i] = engine_.detection_reputation(i);
  return rating::RatingMatrix::build(store_, detection_reps,
                                     detector_config_.high_rep_threshold,
                                     detector_config_.frequency_min);
}

core::DetectionReport CentralizedManager::run_detection(
    detect::Detector& detector, SuppressionMode mode) {
  const rating::RatingMatrix matrix = snapshot();
  core::DetectionReport report =
      detector.on_epoch(detect::EpochSnapshot::of(matrix));

  // Confirmation policy: advance streaks for flagged pairs, reset the
  // rest, and collect the nodes of pairs that have reached the bar.
  std::unordered_set<std::uint64_t> flagged_now;
  std::vector<rating::NodeId> confirmed;
  for (const core::PairEvidence& e : report.pairs) {
    const std::uint64_t key = core::pair_key(e.first, e.second);
    flagged_now.insert(key);
    const std::size_t streak = ++pair_streaks_[key];
    if (streak >= confirmation_passes_) {
      confirmed.push_back(e.first);
      confirmed.push_back(e.second);
    }
  }
  for (auto it = pair_streaks_.begin(); it != pair_streaks_.end();) {
    if (!flagged_now.contains(it->first)) it = pair_streaks_.erase(it);
    else ++it;
  }

  if (mode != SuppressionMode::kNone && !confirmed.empty()) {
    for (rating::NodeId id : confirmed) {
      detected_.insert(id);
      if (mode == SuppressionMode::kPin) engine_.suppress(id);
      else engine_.reset_reputation(id);
    }
    engine_.update_epoch();
  }
  return report;
}

}  // namespace p2prep::managers
