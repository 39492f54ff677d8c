// Group collusion detection — the paper's stated future work ("we will
// also investigate how to detect a collusion collective having more than
// two nodes such as Sybil attack").
//
// Builds the mutual-boosting graph over high-reputed nodes: an edge joins
// i and j when each rates the other frequently (C4) and almost always
// positively (C3) within the window. Connected components of this graph
// are candidate collectives; a component is flagged when the ratings it
// receives from OUTSIDE itself are mostly negative (C2 lifted from pairs
// to sets). Pairwise collusion appears as 2-node components, so this
// detector strictly generalizes the pairwise methods' accept region while
// also naming the collective structure (rings, stars, chains).
//
// Cost: one pass over the live rows to build edges (O(m n)) plus O(edge)
// component work — the same order as the Optimized method.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "rating/matrix.h"
#include "util/cost.h"

namespace p2prep::core {

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

/// Runs one group detection pass over `matrix`. Deterministic: groups
/// are ordered by their lowest member.
[[nodiscard]] GroupDetectionReport detect_groups(
    const rating::RatingMatrix& matrix, const DetectorConfig& config);

}  // namespace p2prep::core
