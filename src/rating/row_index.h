// RowIndex: which partition holds node i's state, and at which slot.
//
// A sharded host splits the n nodes into partitions (the service's
// consistent-hash shards, the cluster's key ranges); each partition keeps
// one dense slot per node it owns, not one per node. The index maps node
// i to owner(i) and to rank(i), i's position among its owner's nodes in
// ascending id order, and lists each partition's nodes in that order.
// It is immutable and shared: every matrix and engine of one partitioning
// holds the same instance, so the per-node tables are paid once, not once
// per partition. A standalone matrix or engine is the one-partition case
// (single()), where rank(i) == i.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rating/types.h"

namespace p2prep::rating {

class RowIndex {
 public:
  /// The slot of a node its partition does not own.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Indexes `owners` (node id -> partition, each < num_parts).
  RowIndex(std::vector<std::uint32_t> owners, std::size_t num_parts);

  /// One partition that owns all of [0, n).
  [[nodiscard]] static std::shared_ptr<const RowIndex> single(std::size_t n);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return owners_.size();
  }
  [[nodiscard]] std::size_t num_parts() const noexcept {
    return offsets_.size() - 1;
  }
  [[nodiscard]] std::uint32_t owner(NodeId i) const noexcept {
    return owners_[i];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& owners() const noexcept {
    return owners_;
  }
  /// i's slot in partition `part`, or kNoSlot when `part` does not own it.
  /// `i` must be < num_nodes().
  [[nodiscard]] std::uint32_t slot(NodeId i, std::uint32_t part) const
      noexcept {
    return owners_[i] == part ? ranks_[i] : kNoSlot;
  }
  /// slot() for an id from outside: throws std::out_of_range when
  /// i >= num_nodes().
  [[nodiscard]] std::uint32_t checked_slot(NodeId i,
                                           std::uint32_t part) const {
    if (i >= num_nodes()) throw_bad_id();
    return slot(i, part);
  }
  /// checked_slot() of a node `part` must own: throws std::out_of_range
  /// when it does not.
  [[nodiscard]] std::uint32_t owned_slot(NodeId i, std::uint32_t part) const;
  /// The nodes `part` owns, ascending; nodes(part)[slot] is the node at
  /// that slot.
  [[nodiscard]] std::span<const NodeId> nodes(std::uint32_t part) const
      noexcept {
    return {nodes_.data() + offsets_[part],
            nodes_.data() + offsets_[part + 1]};
  }

  /// Heap bytes of the tables the index adds to the owner table: the
  /// ranks, the per-partition node lists and their offsets. A host charges
  /// them once for all its partitions.
  [[nodiscard]] std::size_t slot_table_bytes() const noexcept;

 private:
  [[noreturn]] static void throw_bad_id();

  std::vector<std::uint32_t> owners_;   ///< node -> partition
  std::vector<std::uint32_t> ranks_;    ///< node -> slot in its partition
  std::vector<NodeId> nodes_;           ///< nodes grouped by partition
  std::vector<std::uint32_t> offsets_;  ///< partition -> start in nodes_
};

}  // namespace p2prep::rating
