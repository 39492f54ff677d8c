// ShardMap: the consistent-hash shard assignment of the reputation
// service (DESIGN.md "Elastic resharding"). Each of the S shards places
// kVirtualPoints points on the 2^64 Chord key space (dht::hash_shard_point,
// the same ring ChordRing keys live on); a node belongs to the shard whose
// point is the successor of dht::hash_node(id), wrapping at the top.
//
// Two properties the service builds on:
//
//  * Placement is a pure function of the shard count alone. Two maps built
//    for the same S agree everywhere, so recovery can rebuild the map any
//    checkpoint was written under from its stored shard count, and a
//    grow-then-shrink sequence (4 -> 8 -> 4) restores the original
//    placement exactly.
//  * Growing S -> S+1 moves only the key ranges claimed by the new shard's
//    points — an expected 1/(S+1) of all keys — and never moves a key
//    between two pre-existing shards. Shrinking removes the highest shard
//    indices and redistributes only their keys.
//
// The per-node owner table is materialized once at construction (O(n log
// (S*V))), so owner() is an O(1) array read on the ingest hot path — the
// same cost as the modulo mapping it replaces. Next to it the map builds
// the rank table: rank(i) is node i's position among its owner's nodes,
// ascending by id. Both live in one immutable rating::RowIndex that every
// shard's matrix and engine share (row_index()), so a shard holds one
// slot per node it owns and the per-node tables are paid once per map,
// not once per shard. Copies of a map share the index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dht/hash.h"
#include "rating/row_index.h"
#include "rating/types.h"

namespace p2prep::service {

class ShardMap {
 public:
  /// Ring points per shard. More points flatten the per-shard key-count
  /// variance (stddev ~ 1/sqrt(V)); 64 keeps the map under 1 KiB per
  /// shard while bounding the imbalance well below 2x.
  static constexpr std::uint32_t kVirtualPoints = 64;

  /// Builds the map for `num_shards` shards over node ids
  /// [0, num_nodes). `num_shards` must be >= 1.
  ShardMap(std::size_t num_shards, std::size_t num_nodes);

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return num_shards_;
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return index_->num_nodes();
  }

  /// Owner shard of node `id`. O(1); `id` must be < num_nodes().
  [[nodiscard]] std::size_t owner(rating::NodeId id) const noexcept {
    return index_->owner(id);
  }

  /// Owner shard of an arbitrary ring key (successor point, wrapping).
  [[nodiscard]] std::size_t owner_of_key(dht::Key key) const noexcept;

  /// The materialized per-node owner table (detect::EpochSnapshot carries
  /// a copy so detectors resolve rows against the live map).
  [[nodiscard]] const std::vector<std::uint32_t>& owners() const noexcept {
    return index_->owners();
  }

  /// The owner and rank tables, shared by every shard built on this map.
  [[nodiscard]] const std::shared_ptr<const rating::RowIndex>& row_index()
      const noexcept {
    return index_;
  }

  /// True when every node maps to one shard — the single-partition case
  /// where cross-row detection features (accomplice propagation) see the
  /// full pair graph and stay enabled.
  [[nodiscard]] bool single_owner() const noexcept;

  /// Node ids whose owner differs between `from` and `to`, ascending —
  /// the handoff set of a resize. Both maps must cover the same node
  /// range.
  [[nodiscard]] static std::vector<rating::NodeId> moved_nodes(
      const ShardMap& from, const ShardMap& to);

 private:
  struct RingPoint {
    dht::Key key;
    std::uint32_t shard;
  };

  std::size_t num_shards_;
  std::vector<RingPoint> points_;  ///< Sorted by key.
  std::shared_ptr<const rating::RowIndex> index_;  ///< owners and ranks
};

}  // namespace p2prep::service
