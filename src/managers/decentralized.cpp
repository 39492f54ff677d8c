#include "managers/decentralized.h"

#include <cassert>
#include <limits>
#include <memory>
#include <unordered_map>

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
  for (rating::NodeId id : manager_ids)
    if (ring_.add_node(id)) add_shard(id);
  ring_.rebuild();
  assert(!ring_.empty());

  manager_index_.resize(config_.num_nodes, rating::kInvalidNode);
  for (rating::NodeId id = 0; id < config_.num_nodes; ++id)
    manager_index_[id] = ring_.manager_of(id);
}

void DecentralizedReputationSystem::add_shard(rating::NodeId manager) {
  rating::RatingMatrix& m =
      shards_
          .try_emplace(manager, config_.num_nodes, rating::ScanCost::kStored)
          .first->second;
  m.set_frequency_threshold(config_.detector.frequency_min);
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
  shards_.at(route.owner).add_rating(r.ratee, r.rater, r.score);
  return true;
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
  answer.reputation =
      detected_.contains(target)
          ? 0
          : shards_.at(route.owner).window_reputation(target);
  return answer;
}

DecentralizedReputationSystem::HandoffStats
DecentralizedReputationSystem::reassign_shards() {
  HandoffStats stats;
  for (rating::NodeId id = 0; id < config_.num_nodes; ++id) {
    const rating::NodeId new_mgr = ring_.manager_of(id);
    const rating::NodeId old_mgr = manager_index_[id];
    if (new_mgr == old_mgr) continue;
    rating::RatingMatrix& to = shards_.at(new_mgr);
    rating::RatingMatrix& from = shards_.at(old_mgr);
    stats.transferred_ratings += from.totals(id).total;
    const auto cells = from.take_row(id);
    to.reserve_cells(id, cells.size());
    for (const auto& [rater, cell] : cells) to.restore_cell(id, rater, cell);
    // The old manager keeps no host meta (C1 flag) of a node it left.
    from.set_global_reputation(id, 0.0,
                               std::numeric_limits<double>::infinity());
    manager_index_[id] = new_mgr;
    ++stats.reassigned_nodes;
  }
  return stats;
}

std::optional<DecentralizedReputationSystem::HandoffStats>
DecentralizedReputationSystem::add_manager(rating::NodeId id) {
  if (id >= config_.num_nodes || ring_.contains(id)) return std::nullopt;
  if (!ring_.add_node(id)) return std::nullopt;
  add_shard(id);
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
  return shards_.at(manager_index_.at(id)).window_reputation(id);
}

void DecentralizedReputationSystem::reset_window() {
  for (auto& [mgr, shard] : shards_) shard.clear_window();
}

DecentralizedReputationSystem::DetectionOutcome
DecentralizedReputationSystem::run_detection(std::string_view detector,
                                             bool suppress) {
  const std::unique_ptr<detect::Detector> kernel =
      detect::make_detector(detector, config_.detector);
  const std::size_t n = config_.num_nodes;

  // Each manager's C1 view is the window sum of the nodes it owns, set on
  // its own matrix only; the snapshot sweeps the live matrices.
  detect::EpochSnapshot snapshot;
  std::unordered_map<rating::NodeId, std::uint32_t> position;
  for (const auto& [mgr, matrix] : shards_) {
    position.emplace(mgr, static_cast<std::uint32_t>(position.size()));
    snapshot.matrices.push_back(&matrix);
  }
  std::vector<std::uint32_t> owners(n);
  for (rating::NodeId i = 0; i < n; ++i) {
    owners[i] = position.at(manager_index_[i]);
    rating::RatingMatrix& m = shards_.at(manager_index_[i]);
    m.set_global_reputation(i, static_cast<double>(m.window_reputation(i)),
                            config_.detector.high_rep_threshold);
  }
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
