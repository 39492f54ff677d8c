#include "detect/accomplice_exchange.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/predicates.h"
#include "util/cost.h"

namespace p2prep::detect {

namespace {

struct Candidate {
  rating::NodeId d = 0;  ///< Frontier node (already flagged).
  rating::NodeId k = 0;  ///< Its mutual-boosting partner.
};

}  // namespace

std::uint32_t propagate_accomplices(const EpochSnapshot& snapshot,
                                    const core::DetectorConfig& config,
                                    core::DetectionReport& report) {
  snapshot.check_owners();
  if (!config.flag_accomplices ||
      (report.pairs.empty() && report.rings.empty())) {
    return 0;
  }

  std::unordered_set<std::uint64_t> known_pairs;
  std::unordered_set<rating::NodeId> flagged;
  std::vector<rating::NodeId> frontier;
  for (const core::PairEvidence& e : report.pairs) {
    known_pairs.insert(core::pair_key(e.first, e.second));
    if (flagged.insert(e.first).second) frontier.push_back(e.first);
    if (flagged.insert(e.second).second) frontier.push_back(e.second);
  }
  // Ring members seed the fixpoint too: an accomplice of a ring colluder
  // is as culpable as one of a pair colluder.
  for (const core::RingEvidence& r : report.rings) {
    for (rating::NodeId m : r.members) {
      if (flagged.insert(m).second) frontier.push_back(m);
    }
  }

  const std::size_t num_groups = std::max<std::size_t>(
      1, snapshot.matrices.size());

  std::uint32_t rounds = 0;
  while (!frontier.empty()) {
    ++rounds;
    // Partition the round's frontier by owner shard, ascending node order
    // within each group, so the per-group scans and the shard-order merge
    // below are deterministic regardless of how the frontier accumulated.
    std::sort(frontier.begin(), frontier.end());
    std::vector<std::vector<rating::NodeId>> groups(num_groups);
    for (rating::NodeId d : frontier) {
      groups[snapshot.owner_of(d)].push_back(d);
    }

    // Each group scans its nodes' rows in the owner matrix and collects
    // candidates plus the cost it charged; the exchange step merges both
    // in shard-index order.
    std::vector<std::vector<Candidate>> found(num_groups);
    std::vector<util::CostCounter> costs(num_groups);
    run_tasks(snapshot.executor, num_groups, [&](std::size_t g) {
      util::CostCounter& cost = costs[g];
      for (rating::NodeId d : groups[g]) {
        // Candidate accomplices are raters of d's row: a node that never
        // rated d cannot be in a mutual frequent relationship with it
        // (C4 needs N_(d,k) >= T_N >= 1).
        snapshot.matrix_of(d).for_each_cell(
            d, [&](rating::NodeId k, const rating::PairStats& from_k) {
              if (k == d ||
                  known_pairs.contains(core::pair_key(d, k)))
                return;
              cost.add_scan();
              cost.add_check();
              if (!core::frequency_ok(from_k, config) ||
                  !core::positive_fraction_ok(from_k, config))
                return;
              snapshot.partner_check(d, k);
              const rating::PairStats& from_d =
                  snapshot.matrix_of(k).cell(k, d);
              cost.add_scan();
              cost.add_check();
              if (!core::frequency_ok(from_d, config) ||
                  !core::positive_fraction_ok(from_d, config))
                return;
              found[g].push_back({d, k});
            });
      }
    });

    // Exchange: merge every shard's candidates into the global flagged
    // set. Runs single-threaded between rounds — this is the fixpoint's
    // synchronization point, and where duplicates discovered by two
    // shards in the same round (d found k, k found d) collapse.
    frontier.clear();
    for (std::size_t g = 0; g < num_groups; ++g) {
      report.cost += costs[g];
      for (const Candidate& c : found[g]) {
        if (!known_pairs.insert(core::pair_key(c.d, c.k)).second) continue;
        const rating::RatingMatrix& md = snapshot.matrix_of(c.d);
        const rating::RatingMatrix& mk = snapshot.matrix_of(c.k);
        core::PairEvidence ev;
        ev.first = c.d;
        ev.second = c.k;
        ev.ratings_to_first = md.cell(c.d, c.k).total;
        ev.ratings_to_second = mk.cell(c.k, c.d).total;
        ev.positive_fraction_first = md.cell(c.d, c.k).positive_fraction();
        ev.positive_fraction_second = mk.cell(c.k, c.d).positive_fraction();
        ev.complement_fraction_first =
            (md.totals(c.d) - md.cell(c.d, c.k)).positive_fraction();
        ev.complement_fraction_second =
            (mk.totals(c.k) - mk.cell(c.k, c.d)).positive_fraction();
        ev.global_rep_first = md.global_reputation(c.d);
        ev.global_rep_second = mk.global_reputation(c.k);
        report.pairs.push_back(ev);
        if (flagged.insert(c.k).second) frontier.push_back(c.k);
      }
    }
  }

  report.canonicalize();
  return rounds;
}

}  // namespace p2prep::detect
