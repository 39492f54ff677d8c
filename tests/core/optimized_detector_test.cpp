#include "detect/optimized_detector.h"

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

Scenario collusion_scenario() {
  Scenario s(30);
  s.collude(0, 1, 50);
  s.crowd(3, 30, 0, 0.1);
  s.crowd(3, 30, 1, 0.1);
  s.crowd(3, 30, 2, 0.9);
  s.set_rep(0, 0.2).set_rep(1, 0.2).set_rep(2, 0.3);
  return s;
}

TEST(OptimizedDetectorTest, DetectsPlantedPair) {
  detect::OptimizedDetector d(config());
  const DetectionReport report =
      d.on_epoch(detect::EpochSnapshot::of(collusion_scenario().build()));
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_TRUE(report.contains(0, 1));
}

TEST(OptimizedDetectorTest, HonestNodeNotFlagged) {
  detect::OptimizedDetector d(config());
  const DetectionReport report =
      d.on_epoch(detect::EpochSnapshot::of(collusion_scenario().build()));
  for (const auto& e : report.pairs) {
    EXPECT_NE(e.first, 2u);
    EXPECT_NE(e.second, 2u);
  }
}

TEST(OptimizedDetectorTest, LowReputationIgnored) {
  Scenario s = collusion_scenario();
  s.set_rep(0, 0.0).set_rep(1, 0.0);
  detect::OptimizedDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(OptimizedDetectorTest, InfrequentPairIgnored) {
  Scenario s(30);
  s.collude(0, 1, 19);
  s.crowd(3, 30, 0, 0.1);
  s.crowd(3, 30, 1, 0.1);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  detect::OptimizedDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(OptimizedDetectorTest, PopularPairRejectedByUpperBound) {
  // Crowd loves both: window reputation too high for Formula (2).
  Scenario s(30);
  s.collude(0, 1, 50);
  s.crowd(3, 30, 0, 0.95);
  s.crowd(3, 30, 1, 0.95);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  detect::OptimizedDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(OptimizedDetectorTest, FeudRejectedByLowerBound) {
  Scenario s(30);
  s.rate(0, 1, 50, rating::Score::kNegative);
  s.rate(1, 0, 50, rating::Score::kNegative);
  s.crowd(3, 30, 0, 0.1);
  s.crowd(3, 30, 1, 0.1);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  detect::OptimizedDetector d(config());
  EXPECT_TRUE(d.on_epoch(detect::EpochSnapshot::of(s.build())).pairs.empty());
}

TEST(OptimizedDetectorTest, CostMuchLowerThanQuadraticScan) {
  // The whole point of the method: no O(n) inner scans. On a wide matrix
  // the scan count stays O(m n) instead of O(m n^2).
  Scenario s(200);
  s.collude(0, 1, 50);
  for (rating::NodeId id = 0; id < 200; ++id) s.set_rep(id, 0.2);
  s.crowd(3, 200, 0, 0.1);
  s.crowd(3, 200, 1, 0.1);
  const auto matrix = s.build();
  detect::OptimizedDetector d(config());
  const auto report = d.on_epoch(detect::EpochSnapshot::of(matrix));
  // m = 200 live rows; scans must stay well below m * n = 40000 * n.
  EXPECT_LT(report.cost.element_scans, 200u * 200u + 1000u);
  EXPECT_TRUE(report.contains(0, 1));
}

TEST(OptimizedDetectorTest, EvidenceCarriesDerivedComplements) {
  detect::OptimizedDetector d(config());
  const auto report =
      d.on_epoch(detect::EpochSnapshot::of(collusion_scenario().build()));
  ASSERT_EQ(report.pairs.size(), 1u);
  const PairEvidence& e = report.pairs[0];
  EXPECT_DOUBLE_EQ(e.positive_fraction_first, 1.0);
  EXPECT_NEAR(e.complement_fraction_first, 0.1, 0.05);
  EXPECT_NEAR(e.complement_fraction_second, 0.1, 0.05);
}

TEST(OptimizedDetectorTest, AccomplicePropagationWorks) {
  Scenario s(40);
  s.collude(0, 1, 50).collude(0, 7, 50);
  s.crowd(10, 40, 0, 0.05);
  s.crowd(10, 40, 1, 0.05);
  s.crowd(10, 40, 7, 0.95);
  s.set_rep(0, 0.2).set_rep(1, 0.2).set_rep(7, 0.3);
  DetectorConfig c = config();
  c.complement_fraction_max = 0.7;
  const auto report = detect::OptimizedDetector(c).on_epoch(
      detect::EpochSnapshot::of(s.build()));
  EXPECT_TRUE(report.contains(0, 1));
  EXPECT_TRUE(report.contains(0, 7));
}

TEST(OptimizedDetectorTest, StrictBoundsMissPartnerOnlyBoundary) {
  // Documented boundary behaviour (DetectorConfig::inclusive_bounds),
  // specific to the paper-literal Formula (2) path: partner-only
  // all-positive ratings sit exactly on the bound.
  Scenario s(10);
  s.collude(0, 1, 50);
  s.set_rep(0, 0.2).set_rep(1, 0.2);
  DetectorConfig inclusive = config();
  inclusive.joint_complement = false;
  inclusive.inclusive_bounds = true;
  EXPECT_TRUE(
      detect::OptimizedDetector(inclusive)
          .on_epoch(detect::EpochSnapshot::of(s.build()))
          .contains(0, 1));
  DetectorConfig strict = config();
  strict.joint_complement = false;
  strict.inclusive_bounds = false;
  EXPECT_TRUE(
      detect::OptimizedDetector(strict)
          .on_epoch(detect::EpochSnapshot::of(s.build()))
          .pairs.empty());
}

}  // namespace
}  // namespace p2prep::core
