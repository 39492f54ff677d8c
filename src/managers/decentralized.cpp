#include "managers/decentralized.h"

#include <algorithm>
#include <cassert>

#include "core/formula.h"
#include "core/predicates.h"

namespace p2prep::managers {

DecentralizedReputationSystem::DecentralizedReputationSystem(
    Config config, std::vector<rating::NodeId> manager_ids)
    : config_(config), ring_(config.chord) {
  if (manager_ids.empty()) {
    manager_ids.resize(config_.num_nodes);
    for (rating::NodeId i = 0; i < config_.num_nodes; ++i) manager_ids[i] = i;
  }
  for (rating::NodeId id : manager_ids) ring_.add_node(id);
  ring_.rebuild();
  assert(!ring_.empty());

  manager_index_.resize(config_.num_nodes, rating::kInvalidNode);
  for (rating::NodeId id = 0; id < config_.num_nodes; ++id) {
    const rating::NodeId mgr = ring_.manager_of(id);
    manager_index_[id] = mgr;
    shards_.try_emplace(mgr, config_.num_nodes);
  }
}

bool DecentralizedReputationSystem::ingest(const rating::Rating& r) {
  if (r.rater >= config_.num_nodes || r.ratee >= config_.num_nodes ||
      r.rater == r.ratee) {
    return false;
  }
  // Insert(ID_ratee, r): route from the rater's position on the ring (or
  // from its own manager when the rater is not a ring member).
  const rating::NodeId start =
      ring_.contains(r.rater) ? r.rater : manager_index_[r.rater];
  const dht::LookupResult route =
      ring_.lookup(start, dht::hash_reputation_record(r.ratee));
  transport_messages_ += route.hops;
  assert(route.owner == manager_index_[r.ratee]);
  return shards_.at(route.owner).ingest(r);
}

DecentralizedReputationSystem::ReputationAnswer
DecentralizedReputationSystem::query_reputation(rating::NodeId requester,
                                                rating::NodeId target) {
  ReputationAnswer answer;
  if (target >= config_.num_nodes) return answer;
  const rating::NodeId start =
      ring_.contains(requester) ? requester : manager_index_[requester];
  const dht::LookupResult route =
      ring_.lookup(start, dht::hash_reputation_record(target));
  transport_messages_ += route.hops;
  answer.hops = route.hops;
  answer.manager = route.owner;
  answer.reputation = detected_.contains(target)
                          ? 0
                          : shards_.at(route.owner).reputation(target);
  return answer;
}

DecentralizedReputationSystem::HandoffStats
DecentralizedReputationSystem::reassign_shards() {
  HandoffStats stats;
  for (rating::NodeId id = 0; id < config_.num_nodes; ++id) {
    const rating::NodeId new_mgr = ring_.manager_of(id);
    const rating::NodeId old_mgr = manager_index_[id];
    if (new_mgr == old_mgr) continue;
    shards_.try_emplace(new_mgr, config_.num_nodes);
    rating::RatingStore& from = shards_.at(old_mgr);
    rating::RatingStore& to = shards_.at(new_mgr);
    stats.transferred_ratings += from.lifetime_totals(id).total;
    from.transfer_ratee(to, id);
    manager_index_[id] = new_mgr;
    ++stats.reassigned_nodes;
    ++stats.transfer_messages;
  }
  return stats;
}

std::optional<DecentralizedReputationSystem::HandoffStats>
DecentralizedReputationSystem::add_manager(rating::NodeId id) {
  if (id >= config_.num_nodes || ring_.contains(id)) return std::nullopt;
  if (!ring_.add_node(id)) return std::nullopt;
  ring_.rebuild();
  return reassign_shards();
}

std::optional<DecentralizedReputationSystem::HandoffStats>
DecentralizedReputationSystem::remove_manager(rating::NodeId id) {
  if (ring_.size() <= 1 || !ring_.contains(id)) return std::nullopt;
  ring_.remove_node(id);
  ring_.rebuild();
  HandoffStats stats = reassign_shards();
  shards_.erase(id);  // all of its rows were just moved away
  return stats;
}

std::int64_t DecentralizedReputationSystem::reputation(
    rating::NodeId id) const {
  if (detected_.contains(id)) return 0;
  return shards_.at(manager_index_.at(id))
      .window_totals(id)
      .reputation_delta();
}

void DecentralizedReputationSystem::reset_window() {
  for (auto& [mgr, shard] : shards_) shard.reset_window();
}

std::vector<rating::NodeId> DecentralizedReputationSystem::sorted_raters(
    const rating::RatingStore& shard, rating::NodeId i) {
  std::vector<rating::NodeId> raters;
  shard.for_each_window_rater(
      i, [&raters](rating::NodeId j, const rating::PairStats&) {
        raters.push_back(j);
      });
  std::sort(raters.begin(), raters.end());
  return raters;
}

bool DecentralizedReputationSystem::local_directional_check(
    const rating::RatingStore& shard, rating::NodeId i, rating::NodeId j,
    DetectionMethod method, double& positive_fraction,
    double& complement_fraction, util::CostCounter& cost) const {
  const rating::PairStats pair = shard.window_pair(i, j);
  cost.add_scan();

  cost.add_check();
  if (!core::frequency_ok(pair, config_.detector)) return false;
  positive_fraction = pair.positive_fraction();

  if (method == DetectionMethod::kBasic) {
    cost.add_check();
    if (!core::positive_fraction_ok(pair, config_.detector)) return false;
    // Complement via explicit scan of every other rater (the O(n) step).
    // Joint-complement mode skips other frequent raters (suspected
    // partners) so they cannot mask each other (DetectorConfig docs).
    rating::PairStats complement;
    shard.for_each_window_rater(
        i, [&](rating::NodeId k, const rating::PairStats& stats) {
          if (k == j) return;
          cost.add_scan();
          if (config_.detector.joint_complement &&
              stats.total >= config_.detector.frequency_min) {
            return;
          }
          complement += stats;
        });
    complement_fraction = complement.positive_fraction();
    cost.add_check();
    return core::complement_ok(complement, config_.detector);
  }

  // Optimized path.
  const rating::PairStats& totals = shard.window_totals(i);
  if (!config_.detector.joint_complement) {
    // Paper-literal Formula (2) on quantities the manager already has.
    complement_fraction =
        (totals - pair).positive_fraction();  // evidence only, O(1)
    cost.add_check();
    return core::optimized_directional(pair, totals.total,
                                       totals.reputation_delta(),
                                       config_.detector);
  }

  // Joint-complement generalization: C3 from the pair cell, C2 from the
  // frequent-rater aggregate. A deployed manager maintains the aggregate
  // incrementally (O(1) per rating, see RatingMatrix::add_rating); this
  // simulation recomputes it from the shard but charges the single
  // aggregate read the deployment would pay.
  cost.add_check();
  if (!core::positive_fraction_ok(pair, config_.detector)) return false;
  rating::PairStats frequent;
  shard.for_each_window_rater(
      i, [&](rating::NodeId k, const rating::PairStats& stats) {
        (void)k;
        if (stats.total >= config_.detector.frequency_min) frequent += stats;
      });
  cost.add_scan();  // the aggregate read
  const rating::PairStats complement = totals - frequent;
  complement_fraction = complement.positive_fraction();
  cost.add_check();
  return core::complement_ok(complement, config_.detector);
}

DecentralizedReputationSystem::DetectionOutcome
DecentralizedReputationSystem::run_detection(DetectionMethod method,
                                             bool suppress) {
  DetectionOutcome outcome;
  const double t_r = config_.detector.high_rep_threshold;

  // Managers run their scans in id order for deterministic reports; in a
  // deployment they run concurrently and independently.
  for (const auto& [mgr, shard] : shards_) {
    for (rating::NodeId i = 0; i < config_.num_nodes; ++i) {
      if (manager_index_[i] != mgr) continue;
      outcome.report.cost.add_check();
      const auto r_i = static_cast<double>(
          shard.window_totals(i).reputation_delta());
      if (r_i <= t_r) continue;  // C1 for the local node

      for (rating::NodeId j : sorted_raters(shard, i)) {
        double a_i = 0.0;
        double b_i = 0.0;
        if (!local_directional_check(shard, i, j, method, a_i, b_i,
                                     outcome.report.cost)) {
          continue;
        }

        // n_i is suspected to collude with n_j; resolve n_j's side.
        const rating::NodeId mgr_j = manager_index_[j];
        double a_j = 0.0;
        double b_j = 0.0;
        bool j_side = false;
        double r_j = 0.0;
        if (mgr_j == mgr) {
          ++outcome.local_checks;
          r_j = static_cast<double>(
              shard.window_totals(j).reputation_delta());
          outcome.report.cost.add_check();
          j_side = r_j > t_r &&
                   local_directional_check(shard, j, i, method, a_j, b_j,
                                           outcome.report.cost);
        } else {
          // Insert(j, msg): DHT-route the check request to n_j's manager.
          const dht::LookupResult route =
              ring_.lookup(mgr, dht::hash_reputation_record(j));
          assert(route.owner == mgr_j);
          ++outcome.check_requests;
          outcome.request_hops += route.hops;
          if (cross_check_observer_)
            cross_check_observer_(mgr, mgr_j, route.hops);
          const rating::RatingStore& remote = shards_.at(mgr_j);
          r_j = static_cast<double>(
              remote.window_totals(j).reputation_delta());
          outcome.report.cost.add_check();
          j_side = r_j > t_r &&
                   local_directional_check(remote, j, i, method, a_j, b_j,
                                           outcome.report.cost);
          ++outcome.check_responses;  // direct reply to the requester
        }
        if (!j_side) continue;

        core::PairEvidence ev;
        ev.first = i;
        ev.second = j;
        ev.ratings_to_first = shard.window_pair(i, j).total;
        ev.ratings_to_second =
            shards_.at(mgr_j).window_pair(j, i).total;
        ev.positive_fraction_first = a_i;
        ev.positive_fraction_second = a_j;
        ev.complement_fraction_first = b_i;
        ev.complement_fraction_second = b_j;
        ev.global_rep_first = r_i;
        ev.global_rep_second = r_j;
        outcome.report.pairs.push_back(ev);
      }
    }
  }

  // Accomplice propagation across shards (see
  // detect/accomplice_exchange.h): once a node is flagged, any mutual
  // frequent mostly-positive partner of it is flagged too. The
  // partner-side pair stats live at the partner's manager, so each probe
  // that crosses shards is another routed request.
  if (config_.detector.flag_accomplices) {
    std::unordered_set<std::uint64_t> known;
    std::vector<rating::NodeId> worklist;
    std::unordered_set<rating::NodeId> queued;
    for (const core::PairEvidence& e : outcome.report.pairs) {
      known.insert(core::pair_key(e.first, e.second));
      if (queued.insert(e.first).second) worklist.push_back(e.first);
      if (queued.insert(e.second).second) worklist.push_back(e.second);
    }
    while (!worklist.empty()) {
      const rating::NodeId d = worklist.back();
      worklist.pop_back();
      const rating::NodeId mgr_d = manager_index_[d];
      const rating::RatingStore& shard_d = shards_.at(mgr_d);
      for (rating::NodeId k : sorted_raters(shard_d, d)) {
        if (known.contains(core::pair_key(d, k))) continue;
        const rating::PairStats from_k = shard_d.window_pair(d, k);
        outcome.report.cost.add_scan();
        outcome.report.cost.add_check();
        if (!core::frequency_ok(from_k, config_.detector) ||
            !core::positive_fraction_ok(from_k, config_.detector)) {
          continue;
        }
        const rating::NodeId mgr_k = manager_index_[k];
        if (mgr_k != mgr_d) {
          const dht::LookupResult route =
              ring_.lookup(mgr_d, dht::hash_reputation_record(k));
          assert(route.owner == mgr_k);
          ++outcome.check_requests;
          outcome.request_hops += route.hops;
          ++outcome.check_responses;
          if (cross_check_observer_)
            cross_check_observer_(mgr_d, mgr_k, route.hops);
        }
        const rating::PairStats from_d =
            shards_.at(mgr_k).window_pair(k, d);
        outcome.report.cost.add_scan();
        outcome.report.cost.add_check();
        if (!core::frequency_ok(from_d, config_.detector) ||
            !core::positive_fraction_ok(from_d, config_.detector)) {
          continue;
        }
        core::PairEvidence ev;
        ev.first = d;
        ev.second = k;
        ev.ratings_to_first = from_k.total;
        ev.ratings_to_second = from_d.total;
        ev.positive_fraction_first = from_k.positive_fraction();
        ev.positive_fraction_second = from_d.positive_fraction();
        ev.complement_fraction_first =
            (shard_d.window_totals(d) - from_k).positive_fraction();
        ev.complement_fraction_second =
            (shards_.at(mgr_k).window_totals(k) - from_d).positive_fraction();
        ev.global_rep_first = static_cast<double>(
            shard_d.window_totals(d).reputation_delta());
        ev.global_rep_second = static_cast<double>(
            shards_.at(mgr_k).window_totals(k).reputation_delta());
        outcome.report.pairs.push_back(ev);
        known.insert(core::pair_key(d, k));
        if (queued.insert(k).second) worklist.push_back(k);
      }
    }
  }

  outcome.report.cost.add_message(outcome.check_requests +
                                  outcome.check_responses +
                                  outcome.request_hops);
  outcome.report.canonicalize();

  if (suppress) {
    for (rating::NodeId id : outcome.report.colluders()) detected_.insert(id);
  }
  return outcome;
}

}  // namespace p2prep::managers
