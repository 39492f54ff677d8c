#include "detect/group_detector.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/predicates.h"

namespace p2prep::detect {

bool CollusionGroup::contains(rating::NodeId id) const {
  return std::binary_search(members.begin(), members.end(), id);
}

std::string CollusionGroup::to_string() const {
  std::ostringstream os;
  os << "group{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) os << ", ";
    os << members[i];
  }
  os << "} edges=" << edges.size() << " inside=" << inside_ratings
     << " outside=" << outside_ratings
     << " outside_pos=" << outside_positive_fraction;
  return os.str();
}

std::vector<rating::NodeId> GroupDetectionReport::colluders() const {
  std::vector<rating::NodeId> out;
  for (const CollusionGroup& g : groups)
    out.insert(out.end(), g.members.begin(), g.members.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const CollusionGroup* GroupDetectionReport::group_of(rating::NodeId id) const {
  for (const CollusionGroup& g : groups) {
    if (g.contains(id)) return &g;
  }
  return nullptr;
}

GroupDetectionReport detect_groups(const EpochSnapshot& snapshot,
                                   const core::DetectorConfig& config) {
  snapshot.check_owners();
  GroupDetectionReport report;
  const std::size_t n = snapshot.num_nodes();

  // 1. Mutual-boosting edges among high-reputed nodes. All matrix access
  // is point lookups through the owner matrix's cell() accessor (an
  // absent cell reads as the empty aggregate), so the pass — and the
  // component C2 sums below — is bit-identical across scan-cost rules
  // and shard layouts.
  auto boosts = [&](rating::NodeId target, rating::NodeId by) {
    const rating::PairStats& cell = snapshot.matrix_of(target).cell(target, by);
    report.cost.add_scan();
    report.cost.add_check();
    return core::frequency_ok(cell, config) &&
           core::positive_fraction_ok(cell, config);
  };
  auto high = [&](rating::NodeId id) {
    return snapshot.matrix_of(id).high_reputed(id);
  };

  std::vector<std::pair<rating::NodeId, rating::NodeId>> edges;
  for (rating::NodeId i = 0; i < n; ++i) {
    report.cost.add_check();
    if (!high(i)) continue;
    for (rating::NodeId j = i + 1; j < n; ++j) {
      report.cost.add_check();
      if (!high(j)) continue;
      if (boosts(i, j) && boosts(j, i)) edges.emplace_back(i, j);
    }
  }

  // 2. Connected components via union-find.
  std::vector<rating::NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](rating::NodeId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [a, b] : edges) parent[find(a)] = find(b);

  std::vector<std::vector<rating::NodeId>> components(n);
  for (const auto& [a, b] : edges) {
    // Collect members lazily: every edge endpoint joins its root's bucket.
    components[find(a)].push_back(a);
    components[find(a)].push_back(b);
  }

  // 3. Component-level C2: the outside world's opinion of the collective.
  for (auto& raw_members : components) {
    if (raw_members.empty()) continue;
    std::sort(raw_members.begin(), raw_members.end());
    raw_members.erase(std::unique(raw_members.begin(), raw_members.end()),
                      raw_members.end());
    if (raw_members.size() < 2) continue;

    CollusionGroup group;
    group.members = raw_members;
    for (const auto& [a, b] : edges) {
      if (group.contains(a) && group.contains(b))
        group.edges.emplace_back(a, b);
    }

    rating::PairStats outside;
    for (rating::NodeId member : group.members) {
      const rating::RatingMatrix& matrix = snapshot.matrix_of(member);
      rating::PairStats inside_for_member;
      for (rating::NodeId other : group.members) {
        if (other == member) continue;
        report.cost.add_scan();
        inside_for_member += matrix.cell(member, other);
      }
      group.inside_ratings += inside_for_member.total;
      outside += matrix.totals(member) - inside_for_member;
      report.cost.add_arith();
    }
    group.outside_ratings = outside.total;
    group.outside_positive_fraction = outside.positive_fraction();

    report.cost.add_check();
    if (!core::complement_ok(outside, config)) continue;
    report.groups.push_back(std::move(group));
  }

  std::sort(report.groups.begin(), report.groups.end(),
            [](const CollusionGroup& a, const CollusionGroup& b) {
              return a.members.front() < b.members.front();
            });
  return report;
}

core::DetectionReport GroupDetector::on_epoch(const EpochSnapshot& snapshot) {
  const ScanTimer timer(stats_);
  const GroupDetectionReport groups = detect_groups(snapshot, config_);
  core::DetectionReport report;
  report.cost = groups.cost;
  report.rings.reserve(groups.groups.size());
  for (const CollusionGroup& g : groups.groups) {
    core::RingEvidence ev;
    ev.members = g.members;
    ev.outside_ratings = g.outside_ratings;
    ev.outside_positive_fraction = g.outside_positive_fraction;
    // Inside aggregates over the group's mutual-boosting edges, both
    // directions (the group detector records only the edge list).
    rating::PairStats inside;
    std::uint32_t min_freq = 0;
    for (const auto& [a, b] : g.edges) {
      const rating::PairStats& ab = snapshot.matrix_of(a).cell(a, b);
      const rating::PairStats& ba = snapshot.matrix_of(b).cell(b, a);
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
