#include "service/shard_map.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace p2prep::service {

ShardMap::ShardMap(std::size_t num_shards, std::size_t num_nodes)
    : num_shards_(num_shards) {
  if (num_shards == 0)
    throw std::invalid_argument("shard_map: num_shards must be >= 1");

  points_.reserve(num_shards * kVirtualPoints);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    for (std::uint32_t v = 0; v < kVirtualPoints; ++v)
      points_.push_back({dht::hash_shard_point(s, v), s});
  }
  // Tie-break equal keys by shard index so the map is deterministic even
  // in the (astronomically unlikely) event of a point collision.
  std::sort(points_.begin(), points_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.key != b.key ? a.key < b.key : a.shard < b.shard;
            });

  std::vector<std::uint32_t> owners(num_nodes);
  for (rating::NodeId id = 0; id < num_nodes; ++id)
    owners[id] = static_cast<std::uint32_t>(owner_of_key(dht::hash_node(id)));
  index_ = std::make_shared<const rating::RowIndex>(std::move(owners),
                                                    num_shards);
}

std::size_t ShardMap::owner_of_key(dht::Key key) const noexcept {
  // Successor point: the first ring point at or after `key`, wrapping to
  // the smallest point past the top of the ring.
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const RingPoint& p, dht::Key k) { return p.key < k; });
  return it != points_.end() ? it->shard : points_.front().shard;
}

bool ShardMap::single_owner() const noexcept {
  if (num_shards_ == 1) return true;
  const std::vector<std::uint32_t>& owners = index_->owners();
  if (owners.empty()) return false;
  return std::all_of(owners.begin(), owners.end(),
                     [first = owners.front()](std::uint32_t o) {
                       return o == first;
                     });
}

std::vector<rating::NodeId> ShardMap::moved_nodes(const ShardMap& from,
                                                  const ShardMap& to) {
  if (from.num_nodes() != to.num_nodes())
    throw std::invalid_argument("shard_map: node ranges differ");
  std::vector<rating::NodeId> moved;
  for (rating::NodeId id = 0; id < from.num_nodes(); ++id) {
    if (from.owner(id) != to.owner(id)) moved.push_back(id);
  }
  return moved;
}

}  // namespace p2prep::service
