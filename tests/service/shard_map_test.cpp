// ShardMap unit tests: the consistent-hash placement properties the
// elastic-resharding protocol depends on (DESIGN.md "Elastic resharding").
#include "service/shard_map.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "service/service.h"

namespace p2prep::service {
namespace {

constexpr std::size_t kNodes = 10000;

TEST(ShardMapTest, PlacementIsAPureFunctionOfShardCount) {
  const ShardMap a(4, kNodes);
  const ShardMap b(4, kNodes);
  for (rating::NodeId id = 0; id < kNodes; ++id)
    ASSERT_EQ(a.owner(id), b.owner(id)) << "node " << id;
}

TEST(ShardMapTest, OwnerIsInRangeAndEveryShardIsNonEmpty) {
  const ShardMap map(8, kNodes);
  std::vector<std::size_t> counts(8, 0);
  for (rating::NodeId id = 0; id < kNodes; ++id) {
    ASSERT_LT(map.owner(id), 8u);
    ++counts[map.owner(id)];
  }
  for (std::size_t s = 0; s < 8; ++s)
    EXPECT_GT(counts[s], 0u) << "shard " << s;
}

TEST(ShardMapTest, GrowMovesKeysOnlyToTheNewShard) {
  const ShardMap from(4, kNodes);
  const ShardMap to(5, kNodes);
  const auto moved = ShardMap::moved_nodes(from, to);
  EXPECT_FALSE(moved.empty());
  for (const rating::NodeId id : moved) {
    // A moved key's new owner is always the added shard; keys never
    // shuffle between pre-existing shards.
    EXPECT_EQ(to.owner(id), 4u) << "node " << id;
  }
  // Everything not in `moved` stays put.
  std::size_t m = 0;
  for (rating::NodeId id = 0; id < kNodes; ++id) {
    if (m < moved.size() && moved[m] == id) {
      ++m;
      continue;
    }
    ASSERT_EQ(from.owner(id), to.owner(id)) << "node " << id;
  }
}

TEST(ShardMapTest, GrowMovesRoughlyOneOverSPlusOne) {
  const ShardMap from(4, kNodes);
  const ShardMap to(5, kNodes);
  const auto moved = ShardMap::moved_nodes(from, to);
  // Expectation is kNodes/5 = 2000; kVirtualPoints = 64 keeps the
  // variance well inside a 2x band.
  EXPECT_GT(moved.size(), kNodes / 10);
  EXPECT_LT(moved.size(), 2 * kNodes / 5);
}

TEST(ShardMapTest, GrowThenShrinkRestoresPlacement) {
  const ShardMap four(4, kNodes);
  const ShardMap eight(8, kNodes);
  const ShardMap four_again(4, kNodes);
  EXPECT_FALSE(ShardMap::moved_nodes(four, eight).empty());
  EXPECT_TRUE(ShardMap::moved_nodes(four, four_again).empty());
}

TEST(ShardMapTest, MovedNodesIsAscendingAndMatchesOwnerDiff) {
  const ShardMap from(2, kNodes);
  const ShardMap to(3, kNodes);
  const auto moved = ShardMap::moved_nodes(from, to);
  for (std::size_t i = 1; i < moved.size(); ++i)
    ASSERT_LT(moved[i - 1], moved[i]);
  std::size_t diff = 0;
  for (rating::NodeId id = 0; id < kNodes; ++id)
    if (from.owner(id) != to.owner(id)) ++diff;
  EXPECT_EQ(moved.size(), diff);
}

TEST(ShardMapTest, SingleOwnerOnlyForOneShard) {
  EXPECT_TRUE(ShardMap(1, kNodes).single_owner());
  EXPECT_FALSE(ShardMap(2, kNodes).single_owner());
  // Degenerate but legal: more shards than nodes still routes every node.
  const ShardMap map(4, 2);
  EXPECT_LT(map.owner(0), 4u);
  EXPECT_LT(map.owner(1), 4u);
}

TEST(ShardMapTest, ZeroShardsThrows) {
  EXPECT_THROW(ShardMap(0, kNodes), std::invalid_argument);
}

TEST(ShardMapTest, OwnersTableMatchesOwner) {
  const ShardMap map(6, 500);
  const auto& owners = map.owners();
  ASSERT_EQ(owners.size(), 500u);
  for (rating::NodeId id = 0; id < 500; ++id)
    ASSERT_EQ(owners[id], map.owner(id));
}

/// Within each shard of `map`, the rank table numbers the shard's nodes
/// 0, 1, 2, ... in ascending id order, agrees with owners(), and lists
/// them in row_index()->nodes(shard).
void expect_dense_ascending_ranks(const ShardMap& map) {
  const rating::RowIndex& index = *map.row_index();
  ASSERT_EQ(index.num_nodes(), map.num_nodes());
  ASSERT_EQ(index.num_parts(), map.num_shards());
  ASSERT_EQ(&index.owners(), &map.owners());
  std::vector<std::uint32_t> next(map.num_shards(), 0);
  for (rating::NodeId id = 0; id < map.num_nodes(); ++id) {
    const auto shard = static_cast<std::uint32_t>(map.owner(id));
    ASSERT_EQ(map.owners()[id], shard);
    for (std::uint32_t s = 0; s < map.num_shards(); ++s) {
      if (s == shard) continue;
      ASSERT_EQ(index.slot(id, s), rating::RowIndex::kNoSlot) << "node " << id;
    }
    ASSERT_EQ(index.slot(id, shard), next[shard]) << "node " << id;
    ASSERT_EQ(index.nodes(shard)[next[shard]], id);
    ++next[shard];
  }
  for (std::uint32_t s = 0; s < map.num_shards(); ++s)
    EXPECT_EQ(index.nodes(s).size(), next[s]) << "shard " << s;
}

TEST(ShardMapTest, RanksAreDenseAscendingAndAgreeWithOwners) {
  for (std::size_t shards = 1; shards <= 8; ++shards) {
    for (const std::size_t n : {1u, 2u, 1000u, 10000u}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, " << n
                                      << " nodes");
      expect_dense_ascending_ranks(ShardMap(shards, n));
    }
  }
}

TEST(ShardMapTest, RanksHoldForTheMapAResizeInstalls) {
  ServiceConfig cfg;
  cfg.num_nodes = 1000;
  cfg.num_shards = 3;
  ReputationService svc(cfg);
  for (const std::size_t width : {7u, 2u, 8u}) {
    svc.resize(width);
    const ServiceSnapshot snap = svc.snapshot();
    ASSERT_EQ(snap.num_shards(), width);
    SCOPED_TRACE(testing::Message() << "after resize to " << width);
    expect_dense_ascending_ranks(*snap.map);
  }
  svc.stop();
}

}  // namespace
}  // namespace p2prep::service
