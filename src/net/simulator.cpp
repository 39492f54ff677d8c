#include "net/simulator.h"

#include <algorithm>
#include <cassert>

namespace p2prep::net {

namespace {
util::Rng make_overlay_rng(const SimConfig& config) {
  util::Rng root(config.seed);
  return root.fork(0x6f76657268656164ULL);
}
}  // namespace

Simulator::Simulator(SimConfig config, NodeRoles roles,
                     reputation::ReputationEngine& engine,
                     detect::Detector* detector)
    : config_(config),
      roles_(std::move(roles)),
      rng_(util::Rng(config.seed).fork(0x73696d756c617465ULL)),
      overlay_([&config] {
        util::Rng overlay_rng = make_overlay_rng(config);
        return InterestOverlay(config, overlay_rng);
      }()),
      engine_(engine),
      manager_(config.num_nodes, engine,
               detector != nullptr ? detector->config()
                                   : core::DetectorConfig{}),
      detector_(detector) {
  assert(config_.valid());

  engine_.set_pretrusted(roles_.pretrusted);

  types_.resize(config_.num_nodes, NodeType::kNormal);
  good_prob_.resize(config_.num_nodes, config_.normal_good_prob);
  for (rating::NodeId p : roles_.pretrusted) {
    types_.at(p) = NodeType::kPretrusted;
    good_prob_.at(p) = config_.pretrusted_good_prob;
  }
  for (rating::NodeId c : roles_.colluders) {
    types_.at(c) = NodeType::kColluder;
    good_prob_.at(c) = config_.colluder_good_prob;
  }

  active_prob_.resize(config_.num_nodes);
  for (auto& p : active_prob_)
    p = rng_.uniform(config_.min_active_prob, config_.max_active_prob);

  capacity_left_.resize(config_.num_nodes, config_.node_capacity);
  online_.resize(config_.num_nodes, 1);
  metrics_.requests_served.resize(config_.num_nodes, 0);
  next_fresh_id_ = static_cast<rating::NodeId>(config_.num_nodes - 1);
}

void Simulator::apply_whitewash(const std::vector<rating::NodeId>& flagged) {
  for (rating::NodeId old_id : flagged) {
    if (types_.at(old_id) != NodeType::kColluder) continue;
    // Find an unused identity from the top of the id space: a normal,
    // still-online account (burned identities are parked offline and must
    // not be resurrected as "fresh").
    auto usable = [this](rating::NodeId id) {
      return types_.at(id) == NodeType::kNormal && online_.at(id) != 0;
    };
    while (next_fresh_id_ > 0 && !usable(next_fresh_id_)) {
      --next_fresh_id_;
    }
    if (next_fresh_id_ == 0 || !usable(next_fresh_id_)) {
      return;  // identity pool exhausted
    }
    const rating::NodeId fresh = next_fresh_id_--;

    // The fresh identity inherits the colluder role; the burned identity
    // becomes an abandoned normal account (offline).
    types_.at(fresh) = NodeType::kColluder;
    good_prob_.at(fresh) = config_.colluder_good_prob;
    types_.at(old_id) = NodeType::kNormal;
    online_.at(old_id) = 0;
    for (auto& c : roles_.colluders) {
      if (c == old_id) c = fresh;
    }
    for (auto& [a, b] : roles_.collusion_edges) {
      if (a == old_id) a = fresh;
      if (b == old_id) b = fresh;
    }
    for (auto& [a, b] : roles_.boost_edges) {
      if (a == old_id) a = fresh;
      if (b == old_id) b = fresh;
    }
    ++whitewash_count_;
  }
}

std::size_t Simulator::online_count() const {
  std::size_t count = 0;
  for (std::uint8_t o : online_) count += o;
  return count;
}

void Simulator::apply_churn() {
  if (config_.churn_leave_prob <= 0.0 && config_.churn_rejoin_prob <= 0.0)
    return;
  for (rating::NodeId id = 0; id < config_.num_nodes; ++id) {
    if (types_[id] != NodeType::kNormal) continue;  // specials stay online
    if (online_[id]) {
      if (rng_.chance(config_.churn_leave_prob)) online_[id] = 0;
    } else if (rng_.chance(config_.churn_rejoin_prob)) {
      online_[id] = 1;
    }
  }
}

rating::NodeId Simulator::select_server(rating::NodeId client,
                                        InterestId cat) {
  const auto members = overlay_.cluster(cat);
  double best_rep = -1.0;
  tie_scratch_.clear();
  for (rating::NodeId candidate : members) {
    if (candidate == client || capacity_left_[candidate] == 0 ||
        !online_[candidate]) {
      continue;
    }
    const double rep = engine_.reputation(candidate);
    if (rep > best_rep) {
      best_rep = rep;
      tie_scratch_.clear();
      tie_scratch_.push_back(candidate);
    } else if (rep == best_rep) {
      tie_scratch_.push_back(candidate);
    }
  }
  if (tie_scratch_.empty()) return rating::kInvalidNode;
  if (tie_scratch_.size() == 1) return tie_scratch_.front();
  return tie_scratch_[rng_.next_below(tie_scratch_.size())];
}

void Simulator::inject_collusion_ratings() {
  for (const auto& [u, v] : roles_.collusion_edges) {
    for (std::size_t k = 0; k < config_.collusion_ratings_per_query_cycle;
         ++k) {
      manager_.ingest({.rater = u,
                       .ratee = v,
                       .score = rng_.chance(config_.collusion_positive_prob)
                                    ? rating::Score::kPositive
                                    : rating::Score::kNegative,
                       .time = now_});
      manager_.ingest({.rater = v,
                       .ratee = u,
                       .score = rng_.chance(config_.collusion_positive_prob)
                                    ? rating::Score::kPositive
                                    : rating::Score::kNegative,
                       .time = now_});
      metrics_.collusion_ratings += 2;
    }
  }
  // Sybil-style one-directional boosts: the throwaway identity rates the
  // beneficiary, never the reverse.
  for (const auto& [sybil, target] : roles_.boost_edges) {
    for (std::size_t k = 0; k < config_.collusion_ratings_per_query_cycle;
         ++k) {
      manager_.ingest({.rater = sybil,
                       .ratee = target,
                       .score = rating::Score::kPositive,
                       .time = now_});
      ++metrics_.collusion_ratings;
    }
  }
}

void Simulator::run_query_cycle() {
  // Fresh capacity each query cycle ("50 requests simultaneously per query
  // cycle").
  std::fill(capacity_left_.begin(), capacity_left_.end(),
            config_.node_capacity);

  for (rating::NodeId client = 0; client < config_.num_nodes; ++client) {
    if (!online_[client]) continue;
    if (!rng_.chance(active_prob_[client])) continue;

    const auto interests = overlay_.interests_of(client);
    if (interests.empty()) continue;
    const InterestId cat =
        interests[rng_.next_below(interests.size())];

    const rating::NodeId server = select_server(client, cat);
    if (server == rating::kInvalidNode) {
      ++metrics_.unserved_queries;
      continue;
    }

    --capacity_left_[server];
    ++metrics_.total_requests;
    ++metrics_.requests_served[server];
    if (types_[server] == NodeType::kColluder)
      ++metrics_.requests_to_colluders;

    const bool authentic = rng_.chance(good_prob_[server]);
    if (authentic) ++metrics_.authentic_files;
    else ++metrics_.inauthentic_files;

    manager_.ingest({.rater = client,
                     .ratee = server,
                     .score = authentic ? rating::Score::kPositive
                                        : rating::Score::kNegative,
                     .time = now_});
  }

  inject_collusion_ratings();
  ++now_;
}

void Simulator::run_sim_cycle() {
  apply_churn();

  // Traitors defect at the configured cycle boundary.
  if (cycles_run_ == config_.traitor_defect_cycle) {
    for (rating::NodeId t : roles_.traitors)
      good_prob_.at(t) = config_.traitor_good_prob_after;
  }

  for (std::size_t q = 0; q < config_.query_cycles_per_sim_cycle; ++q)
    run_query_cycle();

  manager_.update_reputations();

  if (detector_ != nullptr) {
    const core::DetectionReport report = manager_.run_detection(*detector_);
    detection_cost_ += report.cost;
    detections_ += report.pairs.size();
    for (rating::NodeId id : report.colluders())
      first_detected_cycle_.try_emplace(id, cycles_run_);
    if (config_.whitewash_on_detection)
      apply_whitewash(report.colluders());
  }

  // The detection window T is one reputation-update period.
  manager_.reset_window();
  ++cycles_run_;
}

void Simulator::run() {
  for (std::size_t c = 0; c < config_.sim_cycles; ++c) run_sim_cycle();
}

}  // namespace p2prep::net
