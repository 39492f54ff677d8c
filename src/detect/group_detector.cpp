#include "detect/group_detector.h"

#include <algorithm>
#include <stdexcept>

#include "core/group_detector.h"

namespace p2prep::detect {

core::DetectionReport GroupDetector::on_epoch(const EpochSnapshot& snapshot) {
  const ScanTimer timer(stats_);
  if (snapshot.matrices.size() != 1)
    throw std::logic_error("group detector requires a single-matrix snapshot");
  const rating::RatingMatrix& matrix = *snapshot.matrices.front();
  const core::GroupDetectionReport groups =
      core::detect_groups(matrix, config_);
  core::DetectionReport report;
  report.cost = groups.cost;
  report.rings.reserve(groups.groups.size());
  for (const core::CollusionGroup& g : groups.groups) {
    core::RingEvidence ev;
    ev.members = g.members;
    ev.outside_ratings = g.outside_ratings;
    ev.outside_positive_fraction = g.outside_positive_fraction;
    // Inside aggregates over the group's mutual-boosting edges, both
    // directions (the group detector records only the edge list).
    rating::PairStats inside;
    std::uint32_t min_freq = 0;
    for (const auto& [a, b] : g.edges) {
      const rating::PairStats& ab = matrix.cell(a, b);
      const rating::PairStats& ba = matrix.cell(b, a);
      inside += ab;
      inside += ba;
      const std::uint32_t weakest = std::min(ab.total, ba.total);
      min_freq = min_freq == 0 ? weakest : std::min(min_freq, weakest);
    }
    ev.internal_ratings = inside.total;
    ev.internal_positive_fraction = inside.positive_fraction();
    ev.min_internal_frequency = min_freq;
    report.rings.push_back(std::move(ev));
  }
  report.canonicalize();
  record_rings(report);
  return report;
}

}  // namespace p2prep::detect
