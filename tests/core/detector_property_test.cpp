// Threshold-grid property sweep: plant one pair with *constructed* (a, b,
// N) statistics and assert both detectors flag it exactly when the
// thresholds admit those statistics — the detection predicate as a truth
// table rather than a scenario.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "rating/matrix.h"

namespace p2prep::core {
namespace {

struct GridPoint {
  // Constructed pair statistics (both directions symmetric).
  std::uint32_t pair_total;
  double pair_positive_fraction;  // realized exactly (counts chosen apart)
  double complement_positive_fraction;
  // Thresholds under test.
  double t_a;
  double t_b;
  std::uint32_t t_n;
};

// Names each grid point by its fields. Without it gtest prints the raw
// object bytes, padding included, so the test ids change between builds.
void PrintTo(const GridPoint& g, std::ostream* os) {
  *os << "N=" << g.pair_total << ",a=" << g.pair_positive_fraction
      << ",b=" << g.complement_positive_fraction << ",Ta=" << g.t_a
      << ",Tb=" << g.t_b << ",TN=" << g.t_n;
}

class DetectorGridTest : public ::testing::TestWithParam<GridPoint> {};

rating::RatingMatrix build_world(const GridPoint& g) {
  // 2 colluders + 40 crowd raters; counts chosen so fractions are exact.
  constexpr std::size_t kNodes = 42;
  rating::RatingMatrix m(kNodes);
  m.set_frequency_threshold(g.t_n);
  const auto pair_pos = static_cast<std::uint32_t>(
      g.pair_positive_fraction * g.pair_total + 0.5);
  auto plant = [&](rating::NodeId rater, rating::NodeId ratee) {
    for (std::uint32_t k = 0; k < g.pair_total; ++k) {
      m.add_rating(ratee, rater,
                   k < pair_pos ? rating::Score::kPositive
                                : rating::Score::kNegative);
    }
  };
  plant(0, 1);
  plant(1, 0);
  const auto comp_pos = static_cast<std::uint32_t>(
      g.complement_positive_fraction * 40 + 0.5);
  for (rating::NodeId r = 2; r < kNodes; ++r) {
    const auto score = (r - 2) < comp_pos ? rating::Score::kPositive
                                          : rating::Score::kNegative;
    m.add_rating(0, r, score);
    m.add_rating(1, r, score);
  }
  m.set_global_reputation(0, 1.0, 0.05);  // both high-reputed
  m.set_global_reputation(1, 1.0, 0.05);
  return m;
}

bool expected_flagged(const GridPoint& g) {
  const auto pair_pos = static_cast<std::uint32_t>(
      g.pair_positive_fraction * g.pair_total + 0.5);
  const double a =
      static_cast<double>(pair_pos) / static_cast<double>(g.pair_total);
  const auto comp_pos = static_cast<std::uint32_t>(
      g.complement_positive_fraction * 40 + 0.5);
  const double b = static_cast<double>(comp_pos) / 40.0;
  return g.pair_total >= g.t_n && a >= g.t_a && b < g.t_b;
}

TEST_P(DetectorGridTest, FlaggedIffThresholdsAdmit) {
  const GridPoint g = GetParam();
  DetectorConfig config;
  config.positive_fraction_min = g.t_a;
  config.complement_fraction_max = g.t_b;
  config.frequency_min = g.t_n;
  config.high_rep_threshold = 0.05;
  config.flag_accomplices = false;

  const auto matrix = build_world(g);
  const bool expected = expected_flagged(g);

  const auto basic =
      detect::BasicDetector(config).on_epoch(detect::EpochSnapshot::of(matrix));
  EXPECT_EQ(basic.contains(0, 1), expected)
      << "basic: N=" << g.pair_total << " a~" << g.pair_positive_fraction
      << " b~" << g.complement_positive_fraction << " Ta=" << g.t_a
      << " Tb=" << g.t_b << " TN=" << g.t_n;

  const auto optimized = detect::OptimizedDetector(config).on_epoch(
      detect::EpochSnapshot::of(matrix));
  EXPECT_EQ(optimized.contains(0, 1), expected)
      << "optimized: N=" << g.pair_total << " a~"
      << g.pair_positive_fraction << " b~"
      << g.complement_positive_fraction << " Ta=" << g.t_a
      << " Tb=" << g.t_b << " TN=" << g.t_n;
}

std::vector<GridPoint> grid() {
  std::vector<GridPoint> points;
  for (std::uint32_t total : {10u, 20u, 40u}) {
    for (double a : {1.0, 0.9, 0.6}) {
      for (double b : {0.05, 0.25, 0.6}) {
        for (double t_a : {0.8, 0.95}) {
          for (double t_b : {0.2, 0.5}) {
            for (std::uint32_t t_n : {20u, 35u}) {
              points.push_back({total, a, b, t_a, t_b, t_n});
            }
          }
        }
      }
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(Grid, DetectorGridTest,
                         ::testing::ValuesIn(grid()));

}  // namespace
}  // namespace p2prep::core
