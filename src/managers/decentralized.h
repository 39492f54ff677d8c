// Decentralized reputation system (paper Sec. IV-B/IV-C, the
// EigenTrust-style deployment of Fig. 2): reputation management is split
// across a set of manager nodes arranged in a Chord DHT. The manager of
// node n_i is the DHT owner of n_i's record key; raters publish ratings
// with Insert(ID_i, r_i) routed through the ring, and managers run the
// detection protocol shard-locally, contacting the partner's manager with a
// check request (another DHT-routed message) when a suspected pair spans
// two managers (Sec. IV-D).
//
// Each manager keeps the rows of its responsible nodes in one live
// standalone rating::RatingMatrix (ScanCost::kStored, frequent aggregates
// at T_N): an Insert is one add_rating, and a handoff moves a node's row
// with take_row and restore_cell. Detection sweeps those live matrices
// with the shared kernels (detect/pair_sweep.h,
// detect/accomplice_exchange.h) as one multi-matrix EpochSnapshot, the
// same shape the service's global epoch sweeps; no matrix is rebuilt. The
// message model rides on the snapshot's partner hook: each time a kernel
// repeats a check from the partner's side, the partner's manager either
// is the checking manager (a local check) or receives a routed request.
//
// Reputations here are the window summation values R_i = N+_i - N-_i the
// paper's Sec. IV-A model prescribes, so DetectorConfig::high_rep_threshold
// is interpreted in raw rating units (a node is high-reputed when its
// window sum exceeds it), and Formula (2) applies exactly.
//
// Message accounting: every DHT routing hop is one message; a check
// response returns directly to the requesting manager (its address is known
// from the request) and costs one message.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/evidence.h"
#include "dht/chord.h"
#include "rating/matrix.h"

namespace p2prep::managers {

class DecentralizedReputationSystem {
 public:
  struct Config {
    std::size_t num_nodes = 0;
    dht::ChordConfig chord{};
    core::DetectorConfig detector{};
  };

  /// `manager_ids`: the high-reputed "power nodes" forming the DHT; if
  /// empty, every node is a manager (a flat DHT).
  explicit DecentralizedReputationSystem(
      Config config, std::vector<rating::NodeId> manager_ids = {});

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return config_.num_nodes;
  }
  [[nodiscard]] std::size_t num_managers() const noexcept {
    return ring_.size();
  }

  /// Which manager owns node `id`'s reputation records.
  [[nodiscard]] rating::NodeId manager_of(rating::NodeId id) const {
    return ring_.manager_of(id);
  }

  /// Publishes a rating: DHT-routes Insert(ID_ratee, r) from the rater (or
  /// its closest manager if the rater is not on the ring) to the ratee's
  /// manager. Returns false for a self-rating or an id >= num_nodes.
  bool ingest(const rating::Rating& r);

  /// A client queries a node's reputation with Lookup(ID): routed through
  /// the ring, hop-counted; the answer is the window sum reputation()
  /// returns. Suppressed nodes report 0; a requester or
  /// target id >= num_nodes gets the empty answer (0, no hops,
  /// kInvalidNode).
  struct ReputationAnswer {
    std::int64_t reputation = 0;
    std::size_t hops = 0;
    rating::NodeId manager = rating::kInvalidNode;
  };
  [[nodiscard]] ReputationAnswer query_reputation(rating::NodeId requester,
                                                  rating::NodeId target);

  /// Oracle (no routing): window summation reputation of `id`.
  [[nodiscard]] std::int64_t reputation(rating::NodeId id) const;

  /// Starts a new detection window on every manager's matrix.
  void reset_window();

  // --- Manager churn (join/leave with shard handoff) ---

  struct HandoffStats {
    std::size_t reassigned_nodes = 0;    ///< Nodes whose manager changed.
    std::uint64_t transferred_ratings = 0;  ///< Window ratings moved.
  };

  /// A node joins the management overlay: it takes ownership of the key
  /// range between its predecessor and itself, and the affected rows move
  /// from their previous managers. Returns nullopt if `id` is invalid or
  /// already a manager.
  std::optional<HandoffStats> add_manager(rating::NodeId id);

  /// A manager leaves; its rows move to the new owners. Refused (nullopt)
  /// for the last manager or a non-member.
  std::optional<HandoffStats> remove_manager(rating::NodeId id);

  struct DetectionOutcome {
    core::DetectionReport report;
    std::uint64_t check_requests = 0;   ///< Manager-to-manager queries sent.
    std::uint64_t check_responses = 0;  ///< Positive/negative replies.
    std::uint64_t request_hops = 0;     ///< DHT routing messages for requests.
    std::uint64_t local_checks = 0;     ///< Pair checks resolved shard-locally.
  };

  /// Runs the full decentralized detection round with the detector
  /// detect::make_detector builds under `detector` ("basic" for Sec. IV-B,
  /// "optimized" for Sec. IV-C): every manager scans its responsible nodes
  /// and the cross-manager protocol resolves remote partners. When
  /// `suppress` is true, flagged nodes' reputations are pinned to 0 for
  /// subsequent queries. Throws std::invalid_argument for an unknown name.
  DetectionOutcome run_detection(std::string_view detector,
                                 bool suppress = true);

  /// Observer invoked for every cross-manager check request the detection
  /// protocol sends (requesting manager, target manager, routing hops).
  /// Used by the latency harness (managers/latency.h); null disables.
  using CrossCheckObserver = std::function<void(
      rating::NodeId from_manager, rating::NodeId to_manager,
      std::size_t hops)>;
  void set_cross_check_observer(CrossCheckObserver observer) {
    cross_check_observer_ = std::move(observer);
  }

  [[nodiscard]] const dht::ChordRing& ring() const noexcept { return ring_; }
  /// Manager `manager`'s matrix: the rows of the nodes it owns.
  [[nodiscard]] const rating::RatingMatrix& shard(
      rating::NodeId manager) const {
    return shards_.at(manager);
  }
  [[nodiscard]] const std::unordered_set<rating::NodeId>& detected()
      const noexcept {
    return detected_;
  }
  /// Cumulative Insert/Lookup routing messages (excludes detection).
  [[nodiscard]] std::uint64_t transport_messages() const noexcept {
    return transport_messages_;
  }

 private:
  /// Recomputes node->manager assignments after a ring change and moves
  /// every reassigned row to its new manager's matrix.
  HandoffStats reassign_shards();
  /// Gives a manager that joins the ring its empty matrix.
  void add_shard(rating::NodeId manager);

  Config config_;
  CrossCheckObserver cross_check_observer_;
  dht::ChordRing ring_;
  /// ring member id -> that manager's matrix (rows of responsible nodes).
  std::map<rating::NodeId, rating::RatingMatrix> shards_;
  /// node id -> manager id; add_manager/remove_manager reassign it.
  std::vector<rating::NodeId> manager_index_;
  std::unordered_set<rating::NodeId> detected_;
  std::uint64_t transport_messages_ = 0;
};

}  // namespace p2prep::managers
