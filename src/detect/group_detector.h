// Group collusion detection — the paper's stated future work ("we will
// also investigate how to detect a collusion collective having more than
// two nodes such as Sybil attack").
//
// detect_groups builds the mutual-boosting graph over high-reputed nodes:
// an edge joins i and j when each rates the other frequently (C4) and
// almost always positively (C3) within the window. Connected components of
// this graph are candidate collectives; a component is flagged when the
// ratings it receives from OUTSIDE itself are mostly negative (C2 lifted
// from pairs to sets). Pairwise collusion appears as 2-node components, so
// this detector strictly generalizes the pairwise methods' accept region
// while also naming the collective structure (rings, stars, chains).
//
// Every row is read through its owner matrix (EpochSnapshot::matrix_of),
// so the pass is the same on one matrix and on the service's shard
// matrices. Cost: one pass over the live rows to build edges (O(m n)) plus
// O(edge) component work — the same order as the Optimized method.
//
// detect::GroupDetector runs detect_groups behind the detector name
// "group" and re-expresses each CollusionGroup as a RingEvidence record
// (members + inside / outside aggregates), so group membership flows
// through the same suppression, accomplice and RPC paths as ring
// membership.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "detect/detector.h"
#include "util/cost.h"

namespace p2prep::detect {

struct CollusionGroup {
  /// Members, ascending. Size >= 2.
  std::vector<rating::NodeId> members;
  /// Mutual-boosting edges inside the group (lower id first).
  std::vector<std::pair<rating::NodeId, rating::NodeId>> edges;
  /// Ratings the group received from non-members: positive fraction.
  double outside_positive_fraction = 0.0;
  std::uint64_t outside_ratings = 0;
  /// Ratings exchanged inside the group.
  std::uint64_t inside_ratings = 0;

  [[nodiscard]] bool contains(rating::NodeId id) const;
  [[nodiscard]] std::string to_string() const;
};

struct GroupDetectionReport {
  std::vector<CollusionGroup> groups;
  util::CostCounter cost;

  [[nodiscard]] std::vector<rating::NodeId> colluders() const;
  [[nodiscard]] const CollusionGroup* group_of(rating::NodeId id) const;
};

/// Runs one group detection pass over `snapshot`. Deterministic: groups
/// are ordered by their lowest member. Throws std::invalid_argument when a
/// multi-matrix snapshot lacks an owner per node.
[[nodiscard]] GroupDetectionReport detect_groups(
    const EpochSnapshot& snapshot, const core::DetectorConfig& config);

class GroupDetector final : public Detector {
 public:
  using Detector::Detector;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "group";
  }

  [[nodiscard]] core::DetectionReport on_epoch(
      const EpochSnapshot& snapshot) override;
};

}  // namespace p2prep::detect
