#include "reputation/summation.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace p2prep::reputation {
namespace {

using rating::Rating;
using rating::Score;

Rating make(rating::NodeId rater, rating::NodeId ratee, Score s) {
  return {.rater = rater, .ratee = ratee, .score = s, .time = 0};
}

TEST(SummationEngineTest, NameAndInitialState) {
  SummationEngine e(4);
  EXPECT_EQ(e.name(), "Summation");
  EXPECT_EQ(e.num_nodes(), 4u);
  e.update_epoch();
  for (rating::NodeId i = 0; i < 4; ++i) EXPECT_EQ(e.reputation(i), 0.0);
}

TEST(SummationEngineTest, RawSumTracksSignedRatings) {
  SummationEngine e(3);
  e.ingest(make(0, 1, Score::kPositive));
  e.ingest(make(0, 1, Score::kPositive));
  e.ingest(make(2, 1, Score::kNegative));
  e.ingest(make(2, 1, Score::kNeutral));
  EXPECT_EQ(e.raw_sum(1), 1);
  EXPECT_EQ(e.raw_sum(0), 0);
}

TEST(SummationEngineTest, NormalizedPublishesDistribution) {
  SummationEngine e(3);
  e.ingest(make(0, 1, Score::kPositive));
  e.ingest(make(0, 1, Score::kPositive));
  e.ingest(make(1, 2, Score::kPositive));
  e.update_epoch();
  EXPECT_DOUBLE_EQ(e.reputation(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(e.reputation(2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(e.reputation(0), 0.0);
  double sum = 0.0;
  for (double r : e.reputations()) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SummationEngineTest, NegativeSumsClampToZeroBeforeNormalizing) {
  SummationEngine e(2);
  e.ingest(make(0, 1, Score::kNegative));
  e.ingest(make(1, 0, Score::kPositive));
  e.update_epoch();
  EXPECT_DOUBLE_EQ(e.reputation(1), 0.0);
  EXPECT_DOUBLE_EQ(e.reputation(0), 1.0);
}

TEST(SummationEngineTest, RawModePublishesSums) {
  SummationEngine e(2, /*normalize=*/false);
  e.ingest(make(0, 1, Score::kNegative));
  e.ingest(make(0, 1, Score::kNegative));
  e.update_epoch();
  EXPECT_DOUBLE_EQ(e.reputation(1), -2.0);
}

TEST(SummationEngineTest, SuppressPinsToZeroAcrossEpochs) {
  SummationEngine e(2);
  e.ingest(make(0, 1, Score::kPositive));
  e.update_epoch();
  EXPECT_GT(e.reputation(1), 0.0);
  e.suppress(1);
  e.update_epoch();
  EXPECT_EQ(e.reputation(1), 0.0);
  EXPECT_TRUE(e.is_suppressed(1));
  e.ingest(make(0, 1, Score::kPositive));
  e.update_epoch();
  EXPECT_EQ(e.reputation(1), 0.0);
}

TEST(SummationEngineTest, IngestAutoGrows) {
  SummationEngine e(1);
  e.ingest(make(0, 5, Score::kPositive));
  EXPECT_GE(e.num_nodes(), 6u);
  e.update_epoch();
  EXPECT_GT(e.reputation(5), 0.0);
}

TEST(SummationEngineTest, CostAccumulatesAndResets) {
  SummationEngine e(4);
  e.ingest(make(0, 1, Score::kPositive));
  e.update_epoch();
  EXPECT_GT(e.cost().total(), 0u);
  e.reset_cost();
  EXPECT_EQ(e.cost().total(), 0u);
}

TEST(SummationEngineTest, PretrustedBookkeeping) {
  SummationEngine e(4);
  e.set_pretrusted({0, 2});
  EXPECT_TRUE(e.is_pretrusted(0));
  EXPECT_FALSE(e.is_pretrusted(1));
  EXPECT_EQ(e.pretrusted_count(), 2u);
  e.set_pretrusted({3});
  EXPECT_FALSE(e.is_pretrusted(0));
  EXPECT_TRUE(e.is_pretrusted(3));
}

// A partitioned engine keeps sums for its own nodes only, but its blob
// keeps one entry per node, 0 for the rest, and a blob that gives a node
// it does not own a non-zero sum is refused.
TEST(SummationEngineTest, PartitionedBlobKeepsTheNEntryLayout) {
  const auto index = std::make_shared<const rating::RowIndex>(
      std::vector<std::uint32_t>{0, 1, 0, 1}, 2);
  SummationEngine even(index, 0, /*normalize=*/false);
  SummationEngine odd(index, 1, /*normalize=*/false);
  even.ingest(make(1, 2, Score::kPositive));
  odd.ingest(make(0, 3, Score::kNegative));
  EXPECT_THROW(even.ingest(make(0, 1, Score::kPositive)), std::out_of_range);
  EXPECT_EQ(even.raw_sum(2), 1);
  EXPECT_EQ(even.raw_sum(3), 0);  // another partition's node reads 0
  EXPECT_EQ(even.reputations().size(), 2u);  // one slot per owned node

  std::ostringstream even_blob, odd_blob;
  ASSERT_TRUE(even.save_state(even_blob));
  ASSERT_TRUE(odd.save_state(odd_blob));
  SummationEngine standalone(4, /*normalize=*/false);
  std::istringstream as_standalone(even_blob.str());
  ASSERT_TRUE(standalone.load_state(as_standalone));
  EXPECT_EQ(standalone.raw_sum(2), 1);
  EXPECT_EQ(standalone.raw_sum(0) + standalone.raw_sum(1) +
                standalone.raw_sum(3),
            0);

  SummationEngine restored(index, 0, /*normalize=*/false);
  std::istringstream own(even_blob.str());
  ASSERT_TRUE(restored.load_state(own));
  EXPECT_EQ(restored.raw_sum(2), 1);
  std::istringstream foreign(odd_blob.str());  // node 3's sum is not 0
  EXPECT_FALSE(restored.load_state(foreign));
  EXPECT_EQ(restored.raw_sum(2), 1);  // unchanged
}

}  // namespace
}  // namespace p2prep::reputation
