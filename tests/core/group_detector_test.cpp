#include "detect/group_detector.h"

#include <gtest/gtest.h>

#include "tests/core/scenario.h"

namespace p2prep::core {
namespace {

using detect::CollusionGroup;
using detect::GroupDetectionReport;
using testing::Scenario;

DetectorConfig config() {
  DetectorConfig c;
  c.positive_fraction_min = 0.8;
  c.complement_fraction_max = 0.2;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  return c;
}

/// Ring of `size` nodes starting at node 0, each pair mutually boosting.
Scenario ring_scenario(std::size_t n, std::size_t size) {
  Scenario s(n);
  for (rating::NodeId a = 0; a < size; ++a) {
    for (rating::NodeId b = static_cast<rating::NodeId>(a + 1); b < size; ++b)
      s.collude(a, b, 30);
  }
  for (rating::NodeId id = 0; id < size; ++id) {
    s.crowd(static_cast<rating::NodeId>(size + 2),
            static_cast<rating::NodeId>(n), id, 0.05);
    s.set_rep(id, 0.2);
  }
  return s;
}

GroupDetectionReport groups_in(const rating::RatingMatrix& matrix) {
  return detect::detect_groups(detect::EpochSnapshot::of(matrix), config());
}

TEST(GroupDetectorTest, DetectsTriangleCollective) {
  // The paper's future-work case: three nodes mutually boosting.
  const auto report = groups_in(ring_scenario(40, 3).build());
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].members,
            (std::vector<rating::NodeId>{0, 1, 2}));
  EXPECT_EQ(report.groups[0].edges.size(), 3u);  // full triangle
  EXPECT_LT(report.groups[0].outside_positive_fraction, 0.2);
  EXPECT_EQ(report.colluders(), (std::vector<rating::NodeId>{0, 1, 2}));
}

TEST(GroupDetectorTest, PairIsTwoNodeGroup) {
  const auto report = groups_in(ring_scenario(40, 2).build());
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].members, (std::vector<rating::NodeId>{0, 1}));
}

TEST(GroupDetectorTest, LargeCliqueDetectedAsOneGroup) {
  const auto report = groups_in(ring_scenario(60, 6).build());
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].members.size(), 6u);
  EXPECT_EQ(report.groups[0].edges.size(), 15u);  // 6 choose 2
}

TEST(GroupDetectorTest, ChainMergesIntoOneComponent) {
  // 0-1, 1-2 mutual boosting (1 has two partners, no 0-2 edge).
  Scenario s(40);
  s.collude(0, 1, 30).collude(1, 2, 30);
  for (rating::NodeId id : {0u, 1u, 2u}) {
    s.crowd(5, 40, id, 0.05);
    s.set_rep(id, 0.2);
  }
  const auto report = groups_in(s.build());
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].members, (std::vector<rating::NodeId>{0, 1, 2}));
  EXPECT_EQ(report.groups[0].edges.size(), 2u);  // chain, not triangle
}

TEST(GroupDetectorTest, PopularCollectiveNotFlagged) {
  // Mutual boosting but the outside world loves them: C2 fails.
  Scenario s(40);
  s.collude(0, 1, 30).collude(1, 2, 30).collude(0, 2, 30);
  for (rating::NodeId id : {0u, 1u, 2u}) {
    s.crowd(5, 40, id, 0.9);
    s.set_rep(id, 0.2);
  }
  EXPECT_TRUE(groups_in(s.build()).groups.empty());
}

TEST(GroupDetectorTest, LowReputationMembersExcluded) {
  Scenario s = ring_scenario(40, 3);
  s.set_rep(0, 0.0).set_rep(1, 0.0).set_rep(2, 0.0);
  EXPECT_TRUE(groups_in(s.build()).groups.empty());
}

TEST(GroupDetectorTest, InfrequentEdgesIgnored) {
  Scenario s(40);
  s.collude(0, 1, 10);  // below T_N
  s.crowd(5, 40, 0, 0.05);
  s.crowd(5, 40, 1, 0.05);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  EXPECT_TRUE(groups_in(s.build()).groups.empty());
}

TEST(GroupDetectorTest, DisjointGroupsReportedSeparately) {
  Scenario s(60);
  s.collude(0, 1, 30).collude(1, 2, 30);  // chain {0,1,2}
  s.collude(10, 11, 30);                   // pair {10,11}
  for (rating::NodeId id : {0u, 1u, 2u, 10u, 11u}) {
    s.crowd(20, 60, id, 0.05);
    s.set_rep(id, 0.2);
  }
  const auto report = groups_in(s.build());
  ASSERT_EQ(report.groups.size(), 2u);
  EXPECT_EQ(report.groups[0].members.size(), 3u);
  EXPECT_EQ(report.groups[1].members,
            (std::vector<rating::NodeId>{10, 11}));
  EXPECT_NE(report.group_of(1), nullptr);
  EXPECT_EQ(report.group_of(1), report.group_of(2));
  EXPECT_NE(report.group_of(1), report.group_of(10));
  EXPECT_EQ(report.group_of(50), nullptr);
}

TEST(GroupDetectorTest, EvidenceFieldsAndToString) {
  const auto report = groups_in(ring_scenario(40, 3).build());
  ASSERT_EQ(report.groups.size(), 1u);
  const CollusionGroup& g = report.groups[0];
  EXPECT_EQ(g.inside_ratings, 3u * 2u * 30u);  // 3 edges, 30 each way
  EXPECT_GT(g.outside_ratings, 0u);
  EXPECT_FALSE(g.to_string().empty());
  EXPECT_GT(report.cost.total(), 0u);
}

TEST(GroupDetectorTest, EmptyMatrix) {
  rating::RatingMatrix matrix(10);
  const auto report = groups_in(matrix);
  EXPECT_TRUE(report.groups.empty());
  EXPECT_TRUE(report.colluders().empty());
}

}  // namespace
}  // namespace p2prep::core
