#include "detect/basic_detector.h"

#include <gtest/gtest.h>

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
  return c;
}

/// Canonical collusion: 0 and 1 bombard each other, the crowd dislikes
/// both, node 2 is an honest bystander everyone likes.
Scenario collusion_scenario() {
  Scenario s(30);
  s.collude(0, 1, 50);
  s.crowd(3, 30, 0, 0.1);
  s.crowd(3, 30, 1, 0.1);
  s.crowd(3, 30, 2, 0.9);
  s.set_rep(0, 0.2).set_rep(1, 0.2).set_rep(2, 0.3);
  return s;
}

TEST(BasicDetectorTest, DetectsPlantedPair) {
  detect::BasicDetector d(config());
  const DetectionReport report =
      d.on_epoch(detect::EpochSnapshot::of(collusion_scenario().build()));
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_TRUE(report.contains(0, 1));
  EXPECT_EQ(report.colluders(), (std::vector<rating::NodeId>{0, 1}));
}

TEST(BasicDetectorTest, HonestBystanderNotFlagged) {
  detect::BasicDetector d(config());
  const DetectionReport report =
      d.on_epoch(detect::EpochSnapshot::of(collusion_scenario().build()));
  for (const auto& e : report.pairs) {
    EXPECT_NE(e.first, 2u);
    EXPECT_NE(e.second, 2u);
  }
}

TEST(BasicDetectorTest, LowReputationPairIgnored) {
  // Same rating pattern, but the pair is below T_R: C1 fails, no checks.
  Scenario s = collusion_scenario();
  s.set_rep(0, 0.01).set_rep(1, 0.01);
  detect::BasicDetector d(config());
  const DetectionReport report =
      d.on_epoch(detect::EpochSnapshot::of(s.build()));
  EXPECT_TRUE(report.pairs.empty());
}

TEST(BasicDetectorTest, OneSidedHighReputationIgnored) {
  Scenario s = collusion_scenario();
  s.set_rep(1, 0.0);
  detect::BasicDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(BasicDetectorTest, InfrequentPairIgnored) {
  Scenario s(30);
  s.collude(0, 1, 19);  // below T_N = 20
  s.crowd(3, 30, 0, 0.1);
  s.crowd(3, 30, 1, 0.1);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  detect::BasicDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(BasicDetectorTest, FrequencyExactlyAtThresholdDetected) {
  Scenario s(30);
  s.collude(0, 1, 20);
  s.crowd(3, 30, 0, 0.1);
  s.crowd(3, 30, 1, 0.1);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  detect::BasicDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).contains(0, 1));
}

TEST(BasicDetectorTest, MutualNegativeBombardmentNotCollusion) {
  // A feud: two nodes frequently rate each other *negatively*.
  Scenario s(30);
  s.rate(0, 1, 50, rating::Score::kNegative);
  s.rate(1, 0, 50, rating::Score::kNegative);
  s.crowd(3, 30, 0, 0.1);
  s.crowd(3, 30, 1, 0.1);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  detect::BasicDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(BasicDetectorTest, OneDirectionalBoostNotFlagged) {
  // 0 boosts 1 but 1 never rates 0 back: N_(0,1) = 0 fails C4 on 0's side.
  Scenario s(30);
  s.rate(0, 1, 50, rating::Score::kPositive);
  s.crowd(3, 30, 1, 0.1);
  s.crowd(3, 30, 0, 0.1);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  DetectorConfig c = config();
  c.flag_accomplices = false;
  detect::BasicDetector d(c);
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(BasicDetectorTest, PopularPairNotFlagged) {
  // Mutual frequent positive ratings, but the crowd loves both: C2 fails.
  Scenario s(30);
  s.collude(0, 1, 50);
  s.crowd(3, 30, 0, 0.9);
  s.crowd(3, 30, 1, 0.9);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  detect::BasicDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(BasicDetectorTest, PartnerOnlyRatingsFollowEmptyComplementPolicy) {
  // Nobody but the partner rated the pair.
  Scenario s(10);
  s.collude(0, 1, 50);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  DetectorConfig c = config();
  c.empty_complement_is_suspicious = true;
  EXPECT_TRUE(
      detect::BasicDetector(c)
          .on_epoch(detect::EpochSnapshot::of(s.build()))
          .contains(0, 1));
  c.empty_complement_is_suspicious = false;
  EXPECT_TRUE(detect::BasicDetector(c)
                  .on_epoch(detect::EpochSnapshot::of(s.build()))
                  .pairs.empty());
}

TEST(BasicDetectorTest, MultiplePairsAllFound) {
  Scenario s(40);
  s.collude(0, 1, 30).collude(2, 3, 40).collude(4, 5, 25);
  for (rating::NodeId id = 0; id < 6; ++id) {
    s.crowd(10, 40, id, 0.1);
    s.set_rep(id, 0.2);
  }
  detect::BasicDetector d(config());
  const DetectionReport report =
      d.on_epoch(detect::EpochSnapshot::of(s.build()));
  EXPECT_EQ(report.pairs.size(), 3u);
  EXPECT_TRUE(report.contains(0, 1));
  EXPECT_TRUE(report.contains(2, 3));
  EXPECT_TRUE(report.contains(4, 5));
}

TEST(BasicDetectorTest, EvidenceFieldsPopulated) {
  detect::BasicDetector d(config());
  const DetectionReport report =
      d.on_epoch(detect::EpochSnapshot::of(collusion_scenario().build()));
  ASSERT_EQ(report.pairs.size(), 1u);
  const PairEvidence& e = report.pairs[0];
  EXPECT_EQ(e.first, 0u);
  EXPECT_EQ(e.second, 1u);
  EXPECT_EQ(e.ratings_to_first, 50u);
  EXPECT_EQ(e.ratings_to_second, 50u);
  EXPECT_DOUBLE_EQ(e.positive_fraction_first, 1.0);
  EXPECT_DOUBLE_EQ(e.positive_fraction_second, 1.0);
  EXPECT_NEAR(e.complement_fraction_first, 0.1, 0.05);
  EXPECT_DOUBLE_EQ(e.global_rep_first, 0.2);
}

TEST(BasicDetectorTest, CostChargedAndScalesWithMatrix) {
  detect::BasicDetector d(config());
  const auto small_report =
      d.on_epoch(detect::EpochSnapshot::of(collusion_scenario().build()));
  EXPECT_GT(small_report.cost.total(), 0u);
  EXPECT_GT(small_report.cost.element_scans, 0u);

  // A matrix with more high-reputed rows costs more to sweep.
  Scenario big(120);
  big.collude(0, 1, 50);
  for (rating::NodeId id = 0; id < 120; ++id) big.set_rep(id, 0.2);
  big.crowd(3, 120, 0, 0.1);
  big.crowd(3, 120, 1, 0.1);
  const auto big_report = detect::BasicDetector(config()).on_epoch(
      detect::EpochSnapshot::of(big.build()));
  EXPECT_GT(big_report.cost.total(), small_report.cost.total());
}

TEST(BasicDetectorTest, EmptyMatrixYieldsNothing) {
  rating::RatingMatrix matrix(10);
  detect::BasicDetector d(config());
  const auto report = d.on_epoch(detect::EpochSnapshot::of(matrix));
  EXPECT_TRUE(report.pairs.empty());
}

TEST(BasicDetectorTest, AccompliceOfDetectedColluderFlagged) {
  // 0-1 is a classic colluding pair. 7 is a "compromised pretrusted" node:
  // it mutually boosts 0, but the crowd loves 7 (no C2 evidence).
  Scenario s(40);
  s.collude(0, 1, 50).collude(0, 7, 50);
  s.crowd(10, 40, 0, 0.05);
  s.crowd(10, 40, 1, 0.05);
  s.crowd(10, 40, 7, 0.95);
  s.set_rep(0, 0.2).set_rep(1, 0.2).set_rep(7, 0.3);

  DetectorConfig with = config();
  // Tolerant T_b so 1's positives inside 0's complement don't mask the
  // 0-1 pair (see DESIGN.md threshold discussion).
  with.complement_fraction_max = 0.7;
  with.flag_accomplices = true;
  const auto flagged = detect::BasicDetector(with).on_epoch(
      detect::EpochSnapshot::of(s.build()));
  EXPECT_TRUE(flagged.contains(0, 1));
  EXPECT_TRUE(flagged.contains(0, 7));

  DetectorConfig without = with;
  without.flag_accomplices = false;
  const auto bare = detect::BasicDetector(without).on_epoch(
      detect::EpochSnapshot::of(s.build()));
  EXPECT_TRUE(bare.contains(0, 1));
  EXPECT_FALSE(bare.contains(0, 7));
}

TEST(BasicDetectorTest, DeterministicAcrossCalls) {
  detect::BasicDetector d(config());
  const auto matrix = collusion_scenario().build();
  const auto a = d.on_epoch(detect::EpochSnapshot::of(matrix));
  const auto b = d.on_epoch(detect::EpochSnapshot::of(matrix));
  EXPECT_EQ(a.pairs.size(), b.pairs.size());
  EXPECT_EQ(a.cost, b.cost);
}

}  // namespace
}  // namespace p2prep::core
