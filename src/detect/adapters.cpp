#include "detect/adapters.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "detect/accomplice_exchange.h"
#include "detect/pair_sweep.h"

namespace p2prep::detect {

namespace {

const rating::RatingMatrix& single_matrix(const EpochSnapshot& snapshot,
                                          std::string_view detector) {
  if (snapshot.matrices.size() != 1) {
    throw std::logic_error(std::string(detector) +
                           " detector requires a single-matrix snapshot");
  }
  return *snapshot.matrices.front();
}

class ScanTimer {
 public:
  explicit ScanTimer(DetectorStats& stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~ScanTimer() {
    stats_.scan_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  DetectorStats& stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void BasicAdapter::on_epoch(const EpochSnapshot& snapshot,
                            core::DetectionReport& report) {
  const ScanTimer timer(stats_);
  report = sweep_basic(snapshot, config_);
  stats_.accomplice_rounds = propagate_accomplices(snapshot, config_, report);
}

void OptimizedAdapter::on_epoch(const EpochSnapshot& snapshot,
                                core::DetectionReport& report) {
  const ScanTimer timer(stats_);
  report = sweep_optimized(snapshot, config_);
  stats_.accomplice_rounds = propagate_accomplices(snapshot, config_, report);
}

void GroupAdapter::on_epoch(const EpochSnapshot& snapshot,
                            core::DetectionReport& report) {
  const ScanTimer timer(stats_);
  const rating::RatingMatrix& matrix = single_matrix(snapshot, name());
  const core::GroupDetectionReport groups = inner_.detect(matrix);
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
  stats_.rings_found = report.rings.size();
  for (const auto& r : report.rings) {
    stats_.largest_ring = std::max<std::uint64_t>(stats_.largest_ring,
                                                  r.members.size());
  }
}

}  // namespace p2prep::detect
