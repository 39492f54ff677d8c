// Ablation: group collusion (the paper's future work). Injects mutually
// rating collectives of growing size into rating matrices and compares the
// pairwise detectors against detect::detect_groups: all catch every
// member (a clique is just many pairs), but only the group detector names
// the collective and its structure; its cost stays on the Optimized
// method's order, far below the Basic method's.
#include <cstdio>

#include "detect/basic_detector.h"
#include "detect/group_detector.h"
#include "detect/optimized_detector.h"
#include "detect/registry.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace p2prep;

core::DetectorConfig config() {
  core::DetectorConfig c;
  c.positive_fraction_min = 0.8;
  c.complement_fraction_max = 0.2;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.0;
  return c;
}

/// Sets every node's global reputation to its window sum; any positive sum
/// is high-reputed.
void rate_by_window_sum(rating::RatingMatrix& m) {
  for (rating::NodeId i = 0; i < m.size(); ++i)
    m.set_global_reputation(i, static_cast<double>(m.window_reputation(i)),
                            0.0);
}

rating::RatingMatrix make_world(std::size_t n, std::size_t group_size) {
  util::Rng rng(group_size * 131 + n);
  rating::RatingMatrix m(n);
  m.set_frequency_threshold(config().frequency_min);
  // One clique of `group_size` nodes starting at 0.
  for (rating::NodeId a = 0; a < group_size; ++a) {
    for (rating::NodeId b = 0; b < group_size; ++b) {
      if (a == b) continue;
      for (int k = 0; k < 30; ++k) m.add_rating(b, a, rating::Score::kPositive);
    }
  }
  // Organic background: colluders get panned, normals praised.
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 6; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      m.add_rating(ratee, rater,
                   rng.chance(ratee < group_size ? 0.05 : 0.85)
                       ? rating::Score::kPositive
                       : rating::Score::kNegative);
    }
  }
  rate_by_window_sum(m);
  return m;
}

/// A directed boost ring 0 -> 1 -> ... -> ring_size-1 -> 0 (each member
/// rates only its successor), buried in the same organic background. No
/// member pair is mutual, so the paper's pairwise predicates see nothing.
rating::RatingMatrix make_ring_world(std::size_t n, std::size_t ring_size) {
  util::Rng rng(ring_size * 977 + n);
  rating::RatingMatrix m(n);
  m.set_frequency_threshold(config().frequency_min);
  for (rating::NodeId u = 0; u < ring_size; ++u) {
    const auto v = static_cast<rating::NodeId>((u + 1) % ring_size);
    for (int k = 0; k < 30; ++k) m.add_rating(v, u, rating::Score::kPositive);
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 6; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      m.add_rating(ratee, rater,
                   rng.chance(ratee < ring_size ? 0.05 : 0.85)
                       ? rating::Score::kPositive
                       : rating::Score::kNegative);
    }
  }
  rate_by_window_sum(m);
  return m;
}

}  // namespace

int main() {
  constexpr std::size_t kNodes = 200;
  util::Table table({"group size", "pairwise(Basic) members", "basic cost",
                     "pairwise(Optimized) members", "optimized cost",
                     "group detector", "group cost"});

  for (std::size_t size : {2u, 3u, 4u, 6u, 8u}) {
    const auto matrix = make_world(kNodes, size);
    const auto snapshot = detect::EpochSnapshot::of(matrix);
    const auto basic =
        detect::BasicDetector(config()).on_epoch(snapshot);
    const auto optimized =
        detect::OptimizedDetector(config()).on_epoch(snapshot);
    const auto groups = detect::detect_groups(snapshot, config());

    std::string group_desc = "none";
    if (!groups.groups.empty()) {
      group_desc = "1 group, " +
                   std::to_string(groups.groups[0].members.size()) +
                   " members, " +
                   std::to_string(groups.groups[0].edges.size()) + " edges";
    }
    table.add_row(
        {util::Table::num(static_cast<std::uint64_t>(size)),
         util::Table::num(static_cast<std::uint64_t>(
             basic.colluders().size())),
         util::Table::num(basic.cost.total()),
         util::Table::num(static_cast<std::uint64_t>(
             optimized.colluders().size())),
         util::Table::num(optimized.cost.total()), group_desc,
         util::Table::num(groups.cost.total())});
  }

  std::printf("=== Ablation: group collusion collectives (n=%zu) ===\n%s\n",
              kNodes, table.render().c_str());

  // Ring-size sweep: directed boost cycles of 2-6 nodes. Size 2 is a
  // mutual pair — the pairwise detectors' domain, invisible to the ring
  // detector by construction (ring_size_min = 3). Sizes 3+ have no mutual
  // edge anywhere, so the pairwise detectors flag nobody; only the
  // streaming ring detector names the cycle.
  util::Table rings({"ring size", "pairwise(Optimized) members",
                     "optimized cost", "ring detector", "ring cost"});
  for (std::size_t size : {2u, 3u, 4u, 5u, 6u}) {
    const auto matrix = make_ring_world(kNodes, size);
    const auto snapshot = detect::EpochSnapshot::of(matrix);
    const auto optimized =
        detect::OptimizedDetector(config()).on_epoch(snapshot);
    const auto detector = detect::make_detector("ring", config());
    const core::DetectionReport ring_report = detector->on_epoch(snapshot);

    std::string ring_desc = "none";
    if (!ring_report.rings.empty()) {
      ring_desc = "1 ring, " +
                  std::to_string(ring_report.rings[0].members.size()) +
                  " members, minN=" +
                  std::to_string(ring_report.rings[0].min_internal_frequency);
    }
    rings.add_row(
        {util::Table::num(static_cast<std::uint64_t>(size)),
         util::Table::num(static_cast<std::uint64_t>(
             optimized.colluders().size())),
         util::Table::num(optimized.cost.total()), ring_desc,
         util::Table::num(ring_report.cost.total())});
  }
  std::printf("=== Ablation: directed boost rings (n=%zu) ===\n%s\n",
              kNodes, rings.render().c_str());
  return 0;
}
