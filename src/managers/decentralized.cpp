#include "managers/decentralized.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "detect/registry.h"
#include "rating/matrix.h"

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
  if (requester >= config_.num_nodes || target >= config_.num_nodes)
    return answer;
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

DecentralizedReputationSystem::DetectionOutcome
DecentralizedReputationSystem::run_detection(std::string_view detector,
                                             bool suppress) {
  const std::unique_ptr<detect::Detector> kernel =
      detect::make_detector(detector, config_.detector);
  const std::size_t n = config_.num_nodes;

  // Each manager freezes its own rows into one sparse matrix; the C1 view
  // is the window sum of the nodes it owns (0 elsewhere, never read).
  std::vector<rating::RatingMatrix> matrices;
  matrices.reserve(shards_.size());
  std::vector<std::uint32_t> owners(n);
  std::vector<double> reps(n);
  for (const auto& [mgr, shard] : shards_) {
    std::fill(reps.begin(), reps.end(), 0.0);
    for (rating::NodeId i = 0; i < n; ++i) {
      if (manager_index_[i] != mgr) continue;
      owners[i] = static_cast<std::uint32_t>(matrices.size());
      reps[i] =
          static_cast<double>(shard.window_totals(i).reputation_delta());
    }
    matrices.push_back(rating::RatingMatrix::build(
        shard, reps, config_.detector.high_rep_threshold,
        config_.detector.frequency_min, rating::ScanCost::kStored));
  }

  detect::EpochSnapshot snapshot;
  for (const rating::RatingMatrix& m : matrices)
    snapshot.matrices.push_back(&m);
  snapshot.owners = owners;

  // The message model: the checking manager resolves the partner's side
  // itself when it owns the partner, else DHT-routes a check request
  // (Insert(ID_partner, msg)) to the partner's manager, which replies
  // directly.
  DetectionOutcome outcome;
  snapshot.on_partner_check = [&](rating::NodeId from,
                                  rating::NodeId partner) {
    const rating::NodeId mgr = manager_index_[from];
    const rating::NodeId mgr_partner = manager_index_[partner];
    if (mgr == mgr_partner) {
      ++outcome.local_checks;
      return;
    }
    const dht::LookupResult route =
        ring_.lookup(mgr, dht::hash_reputation_record(partner));
    assert(route.owner == mgr_partner);
    ++outcome.check_requests;
    ++outcome.check_responses;
    outcome.request_hops += route.hops;
    if (cross_check_observer_)
      cross_check_observer_(mgr, mgr_partner, route.hops);
  };

  outcome.report = kernel->on_epoch(snapshot);
  outcome.report.cost.add_message(outcome.check_requests +
                                  outcome.check_responses +
                                  outcome.request_hops);
  if (suppress) {
    for (rating::NodeId id : outcome.report.colluders()) detected_.insert(id);
  }
  return outcome;
}

}  // namespace p2prep::managers
