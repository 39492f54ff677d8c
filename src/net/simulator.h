// The P2P file-sharing simulator (paper Sec. V "Network model" /
// "Node model" / "Simulation execution" / "Collusion model").
//
// Per query cycle: every node that is active this cycle issues one file
// query in one of its interests; it asks all neighbors in that interest's
// cluster and picks the highest-reputed one with remaining capacity (ties
// broken uniformly at random). The chosen server delivers an authentic file
// with its good-behavior probability, and the client rates +1/-1
// accordingly through the centralized manager. Colluding pairs additionally
// exchange `collusion_ratings_per_query_cycle` positive ratings per query
// cycle.
//
// Per simulation cycle (= query_cycles_per_sim_cycle query cycles): the
// reputation engine recomputes global reputations; if a detector is
// attached, the manager runs a detection pass (suppressing flagged nodes'
// reputations to 0) and the window T rolls over.
//
// All randomness flows from SimConfig::seed; two simulators with the same
// config, roles and engine state produce identical runs.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "detect/detector.h"
#include "managers/centralized.h"
#include "net/config.h"
#include "net/metrics.h"
#include "net/overlay.h"
#include "net/roles.h"
#include "reputation/engine.h"
#include "util/cost.h"
#include "util/rng.h"

namespace p2prep::net {

class Simulator {
 public:
  /// `engine` and `detector` are not owned and must outlive the
  /// simulator. `detector` may be null (baseline run without collusion
  /// detection).
  Simulator(SimConfig config, NodeRoles roles,
            reputation::ReputationEngine& engine,
            detect::Detector* detector = nullptr);

  /// Runs the configured number of simulation cycles.
  void run();
  /// Runs one simulation cycle (query cycles + reputation update +
  /// optional detection + window rollover).
  void run_sim_cycle();

  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] const NodeRoles& roles() const noexcept { return roles_; }
  [[nodiscard]] const InterestOverlay& overlay() const noexcept {
    return overlay_;
  }
  [[nodiscard]] managers::CentralizedManager& manager() noexcept {
    return manager_;
  }
  [[nodiscard]] const managers::CentralizedManager& manager() const noexcept {
    return manager_;
  }
  /// Published global reputations (engine view).
  [[nodiscard]] std::span<const double> reputations() const {
    return engine_.reputations();
  }

  [[nodiscard]] NodeType type_of(rating::NodeId id) const {
    return types_.at(id);
  }
  [[nodiscard]] double good_prob_of(rating::NodeId id) const {
    return good_prob_.at(id);
  }
  [[nodiscard]] double active_prob_of(rating::NodeId id) const {
    return active_prob_.at(id);
  }
  /// Whether node `id` is currently online (churn model; see SimConfig).
  [[nodiscard]] bool online(rating::NodeId id) const {
    return online_.at(id);
  }
  /// Count of currently online nodes.
  [[nodiscard]] std::size_t online_count() const;

  /// Accumulated detector cost across all detection passes (Fig. 13).
  [[nodiscard]] const util::CostCounter& detection_cost() const noexcept {
    return detection_cost_;
  }
  /// Pairs flagged across the run (deduplicated by the manager's set).
  [[nodiscard]] std::size_t detections() const noexcept { return detections_; }
  /// Simulation cycle (0-based) at which each node was first flagged.
  [[nodiscard]] const std::unordered_map<rating::NodeId, std::size_t>&
  first_detected_cycle() const noexcept {
    return first_detected_cycle_;
  }
  /// Identity swaps performed by whitewashing colluders.
  [[nodiscard]] std::size_t whitewash_count() const noexcept {
    return whitewash_count_;
  }
  [[nodiscard]] std::size_t sim_cycles_run() const noexcept {
    return cycles_run_;
  }

 private:
  void run_query_cycle();
  void inject_collusion_ratings();
  void apply_churn();
  /// Swaps detected colluders' identities for fresh ones (whitewashing).
  void apply_whitewash(const std::vector<rating::NodeId>& flagged);
  /// Highest-reputed neighbor of `client` in `cat`'s cluster with remaining
  /// capacity; kInvalidNode if none. Ties broken uniformly.
  [[nodiscard]] rating::NodeId select_server(rating::NodeId client,
                                             InterestId cat);

  SimConfig config_;
  NodeRoles roles_;
  util::Rng rng_;
  InterestOverlay overlay_;
  reputation::ReputationEngine& engine_;
  managers::CentralizedManager manager_;
  detect::Detector* detector_;

  std::vector<NodeType> types_;
  std::vector<double> good_prob_;
  std::vector<double> active_prob_;
  std::vector<std::uint32_t> capacity_left_;
  std::vector<std::uint8_t> online_;
  std::vector<rating::NodeId> tie_scratch_;

  Metrics metrics_;
  util::CostCounter detection_cost_;
  std::unordered_map<rating::NodeId, std::size_t> first_detected_cycle_;
  std::size_t whitewash_count_ = 0;
  rating::NodeId next_fresh_id_ = 0;  // whitewash identity pool cursor
  std::size_t detections_ = 0;
  std::size_t cycles_run_ = 0;
  rating::Tick now_ = 0;  // global query-cycle counter
};

}  // namespace p2prep::net
