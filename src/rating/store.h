// Sparse rating store: the ground-truth ledger of who rated whom.
//
// Maintains, for every ratee, a hash map from rater to PairStats, at two
// horizons: the current reputation-update window T (what the paper's
// detection thresholds N_(i,j) >= T_N are defined over) and the node's
// lifetime (what the summation reputation R_i = N+_i - N-_i is defined
// over). Reputation managers snapshot this store into a RatingMatrix
// before running detection.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "rating/pair_stats.h"
#include "rating/types.h"

namespace p2prep::rating {

class RatingStore {
 public:
  RatingStore() = default;
  explicit RatingStore(std::size_t num_nodes) { resize(num_nodes); }

  /// Number of nodes the store currently covers. Node ids must be < this.
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return per_ratee_.size();
  }

  /// Grows the store; existing aggregates are preserved.
  void resize(std::size_t num_nodes);

  /// Records one rating at both horizons. Self-ratings are rejected
  /// (returns false) — the paper's model has no self-rating channel.
  bool ingest(const Rating& r);

  /// Starts a new reputation-update period T: window counters reset,
  /// lifetime counters are preserved.
  void reset_window();

  /// Total ratings ingested since construction (both horizons' event count).
  /// Not affected by transfer_ratee (it counts local ingest calls).
  [[nodiscard]] std::uint64_t event_count() const noexcept { return events_; }

  /// Moves all of `ratee`'s aggregates (window and lifetime horizons) into
  /// `to`, clearing them here — the shard-handoff primitive used when DHT
  /// manager responsibility changes. Aggregates already present in `to`
  /// for the same ratee are merged. `to` must cover `ratee`.
  void transfer_ratee(RatingStore& to, NodeId ratee);

  // --- Window-horizon accessors (detection inputs) ---

  /// N_(ratee,rater) aggregate in the current window; zero stats if absent.
  [[nodiscard]] PairStats window_pair(NodeId ratee, NodeId rater) const;
  /// N_ratee: all ratings for `ratee` in the current window.
  [[nodiscard]] const PairStats& window_totals(NodeId ratee) const;
  /// N_(ratee,-rater): window totals minus the given rater's contribution.
  [[nodiscard]] PairStats window_complement(NodeId ratee, NodeId rater) const;
  /// Invokes fn(rater, stats) for every rater of `ratee` in the window.
  void for_each_window_rater(
      NodeId ratee,
      const std::function<void(NodeId, const PairStats&)>& fn) const;
  /// Number of distinct raters of `ratee` in the current window.
  [[nodiscard]] std::size_t window_rater_count(NodeId ratee) const;

  // --- Lifetime-horizon accessors (reputation inputs) ---

  [[nodiscard]] PairStats lifetime_pair(NodeId ratee, NodeId rater) const;
  [[nodiscard]] const PairStats& lifetime_totals(NodeId ratee) const;
  /// Invokes fn(rater, stats) for every rater of `ratee` across the
  /// store's lifetime.
  void for_each_lifetime_rater(
      NodeId ratee,
      const std::function<void(NodeId, const PairStats&)>& fn) const;
  /// Summation reputation R_i = lifetime N+ - N- (eBay model, Sec. IV-A).
  [[nodiscard]] std::int64_t reputation(NodeId ratee) const;

 private:
  struct Entry {
    PairStats window;
    PairStats lifetime;
  };

  std::vector<std::unordered_map<NodeId, Entry>> per_ratee_;
  std::vector<PairStats> window_totals_;
  std::vector<PairStats> lifetime_totals_;
  std::uint64_t events_ = 0;
};

}  // namespace p2prep::rating
