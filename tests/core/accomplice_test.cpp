// Direct unit tests of the accomplice-propagation pass
// (detect/accomplice_exchange.h) over one-matrix snapshots.
#include <gtest/gtest.h>

#include "detect/accomplice_exchange.h"
#include "tests/core/scenario.h"

namespace p2prep::core {
namespace {

using testing::Scenario;

DetectorConfig config() {
  DetectorConfig c;
  c.positive_fraction_min = 0.8;
  c.complement_fraction_max = 0.2;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  c.flag_accomplices = true;
  return c;
}

void propagate_accomplices(const rating::RatingMatrix& matrix,
                           const DetectorConfig& cfg, DetectionReport& report) {
  detect::propagate_accomplices(detect::EpochSnapshot::of(matrix), cfg,
                                report);
}

PairEvidence seed_pair(rating::NodeId a, rating::NodeId b) {
  PairEvidence e;
  e.first = a;
  e.second = b;
  return e;
}

TEST(AccompliceTest, NoSeedsIsNoOp) {
  Scenario s(10);
  s.collude(0, 1, 50);
  DetectionReport report;
  propagate_accomplices(s.build(), config(), report);
  EXPECT_TRUE(report.pairs.empty());
  EXPECT_EQ(report.cost.total(), 0u);
}

TEST(AccompliceTest, DisabledFlagIsNoOp) {
  Scenario s(10);
  s.collude(0, 1, 50).collude(1, 2, 50);
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  DetectorConfig c = config();
  c.flag_accomplices = false;
  propagate_accomplices(s.build(), c, report);
  EXPECT_EQ(report.pairs.size(), 1u);
}

TEST(AccompliceTest, DirectAccompliceFound) {
  Scenario s(10);
  s.collude(0, 1, 50).collude(1, 2, 50);
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  propagate_accomplices(s.build(), config(), report);
  EXPECT_TRUE(report.contains(1, 2));
  EXPECT_EQ(report.colluders(), (std::vector<rating::NodeId>{0, 1, 2}));
  EXPECT_GT(report.cost.total(), 0u);
}

TEST(AccompliceTest, PropagatesTransitivelyToFixpoint) {
  // Chain 0-1-2-3-4, seeded only with (0,1): all links must surface.
  Scenario s(12);
  for (rating::NodeId k = 0; k < 4; ++k)
    s.collude(k, static_cast<rating::NodeId>(k + 1), 40);
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  propagate_accomplices(s.build(), config(), report);
  for (rating::NodeId k = 0; k < 4; ++k)
    EXPECT_TRUE(report.contains(k, static_cast<rating::NodeId>(k + 1)))
        << "link " << k;
  EXPECT_EQ(report.colluders().size(), 5u);
}

TEST(AccompliceTest, OneDirectionalBoosterNotAnAccomplice) {
  // Node 2 boosts colluder 0 but is never boosted back: mutuality fails.
  Scenario s(10);
  s.collude(0, 1, 50);
  s.rate(2, 0, 50, rating::Score::kPositive);
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  propagate_accomplices(s.build(), config(), report);
  EXPECT_FALSE(report.contains(0, 2));
}

TEST(AccompliceTest, InfrequentMutualRatersNotAccomplices) {
  Scenario s(10);
  s.collude(0, 1, 50);
  s.collude(0, 2, 10);  // mutual but below T_N
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  propagate_accomplices(s.build(), config(), report);
  EXPECT_FALSE(report.contains(0, 2));
}

TEST(AccompliceTest, MostlyNegativeMutualRatersNotAccomplices) {
  Scenario s(10);
  s.collude(0, 1, 50);
  s.rate(0, 2, 40, rating::Score::kNegative);
  s.rate(2, 0, 40, rating::Score::kNegative);
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  propagate_accomplices(s.build(), config(), report);
  EXPECT_FALSE(report.contains(0, 2));
}

TEST(AccompliceTest, ReportStaysCanonicalAndDeduplicated) {
  Scenario s(10);
  s.collude(0, 1, 50).collude(1, 2, 50).collude(0, 2, 50);  // triangle
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  report.pairs.push_back(seed_pair(2, 1));  // unordered duplicate seed form
  propagate_accomplices(s.build(), config(), report);
  ASSERT_EQ(report.pairs.size(), 3u);
  for (std::size_t i = 0; i < report.pairs.size(); ++i) {
    EXPECT_LT(report.pairs[i].first, report.pairs[i].second);
    if (i > 0) {
      EXPECT_LT(pair_key(report.pairs[i - 1].first,
                         report.pairs[i - 1].second),
                pair_key(report.pairs[i].first, report.pairs[i].second));
    }
  }
}

TEST(AccompliceTest, EvidenceFieldsFilled) {
  Scenario s(10);
  s.collude(0, 1, 50).collude(1, 2, 30);
  s.crowd(4, 10, 2, 0.9);
  DetectionReport report;
  report.pairs.push_back(seed_pair(0, 1));
  propagate_accomplices(s.build(), config(), report);
  const PairEvidence* found = nullptr;
  for (const auto& e : report.pairs) {
    if (pair_key(e.first, e.second) == pair_key(1, 2)) found = &e;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->ratings_to_first, 30u);   // node 1 rated by 2
  EXPECT_EQ(found->ratings_to_second, 30u);  // node 2 rated by 1
  EXPECT_DOUBLE_EQ(found->positive_fraction_first, 1.0);
  EXPECT_NEAR(found->complement_fraction_second, 0.9, 0.15);
}

}  // namespace
}  // namespace p2prep::core
