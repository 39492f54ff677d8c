#include "core/calibration.h"

#include <gtest/gtest.h>

#include "detect/basic_detector.h"
#include "rating/matrix.h"
#include "util/rng.h"

namespace p2prep::core {
namespace {

/// World with planted colluders: normal pairs interact 1-4 times, colluder
/// pairs 30-60 times with opposite score patterns.
struct World {
  std::vector<rating::Rating> ratings;
  std::vector<std::pair<rating::NodeId, rating::NodeId>> planted;

  /// The window matrix of `ratings`, frequent aggregates at
  /// `frequency_threshold`.
  [[nodiscard]] rating::RatingMatrix matrix(
      std::uint32_t frequency_threshold = 0) const {
    rating::RatingMatrix m(200);
    m.set_frequency_threshold(frequency_threshold);
    for (const rating::Rating& r : ratings)
      m.add_rating(r.ratee, r.rater, r.score);
    return m;
  }
};

World make_world(std::uint64_t seed, std::size_t colluder_pairs = 4) {
  World w;
  util::Rng rng(seed);
  for (std::size_t p = 0; p < colluder_pairs; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    w.planted.emplace_back(a, b);
    const auto count = 30 + rng.next_below(31);
    for (std::uint64_t k = 0; k < count; ++k) {
      w.ratings.push_back({a, b, rating::Score::kPositive, k});
      w.ratings.push_back({b, a, rating::Score::kPositive, k});
    }
  }
  for (rating::NodeId rater = 0; rater < 200; ++rater) {
    const std::size_t targets = 2 + rng.next_below(6);
    for (std::size_t t = 0; t < targets; ++t) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(200));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % 200);
      const bool colluder_target = ratee < 2 * colluder_pairs;
      // A colluder never organically downrates its own partner (that
      // would dilute the very campaign it is running).
      if (colluder_target && rater < 2 * colluder_pairs &&
          (rater ^ 1u) == ratee) {
        continue;
      }
      const std::size_t reps = 1 + rng.next_below(3);
      for (std::size_t r = 0; r < reps; ++r) {
        w.ratings.push_back({rater, ratee,
                        rng.chance(colluder_target ? 0.05 : 0.85)
                            ? rating::Score::kPositive
                                : rating::Score::kNegative,
                            0});
      }
    }
  }
  return w;
}

TEST(CalibrationTest, EmptyHistoryKeepsBase) {
  const rating::RatingMatrix empty(10);
  DetectorConfig base;
  base.positive_fraction_min = 0.77;
  const CalibrationReport r = calibrate_thresholds(empty, {}, base);
  EXPECT_EQ(r.rated_pairs, 0u);
  EXPECT_DOUBLE_EQ(r.suggested.positive_fraction_min, 0.77);
}

TEST(CalibrationTest, FrequencyThresholdSeparatesPopulations) {
  const World w = make_world(5);
  const CalibrationReport r = calibrate_thresholds(w.matrix());
  // Normal pairs rate a handful of times; colluders >= 30. T_N must land
  // strictly between the populations.
  EXPECT_GT(r.suggested.frequency_min, 5u);
  EXPECT_LE(r.suggested.frequency_min, 30u);
  EXPECT_GE(r.frequent_pairs, 2u * w.planted.size());
  EXPECT_LT(r.mean_pair_count, 5.0);
  EXPECT_GE(r.max_pair_count, 30.0);
}

TEST(CalibrationTest, PopulationStatisticsMatchConstruction) {
  const World w = make_world(7);
  const CalibrationReport r = calibrate_thresholds(w.matrix());
  // Frequent pairs are dominated by the all-positive collusion campaigns.
  EXPECT_GT(r.frequent_positive_fraction, 0.9);
  // Their ratees' complements are the 5%-positive organic ratings.
  EXPECT_LT(r.frequent_complement_fraction, 0.3);
  // Global baseline sits near the 85% honest service level.
  EXPECT_GT(r.global_positive_fraction, 0.6);
  EXPECT_LT(r.global_positive_fraction, 0.95);
}

TEST(CalibrationTest, ThresholdsSitBetweenPopulations) {
  const World w = make_world(11);
  const CalibrationReport r = calibrate_thresholds(w.matrix());
  EXPECT_GT(r.suggested.positive_fraction_min,
            r.global_positive_fraction);
  EXPECT_LT(r.suggested.positive_fraction_min,
            r.frequent_positive_fraction);
  EXPECT_GT(r.suggested.complement_fraction_max,
            r.frequent_complement_fraction);
  EXPECT_LT(r.suggested.complement_fraction_max,
            r.global_positive_fraction);
}

TEST(CalibrationTest, CalibratedDetectorFindsAllPlantedPairs) {
  // The point of the exercise: calibrate on the history, detect with the
  // suggested thresholds, recover exactly the planted colluders.
  for (std::uint64_t seed : {13ull, 17ull, 19ull}) {
    const World w = make_world(seed);
    const CalibrationReport r = calibrate_thresholds(w.matrix());

    DetectorConfig cfg = r.suggested;
    cfg.high_rep_threshold = 0.0;
    rating::RatingMatrix matrix = w.matrix(cfg.frequency_min);
    for (rating::NodeId i = 0; i < 200; ++i)
      matrix.set_global_reputation(
          i, static_cast<double>(matrix.window_reputation(i)),
          cfg.high_rep_threshold);

    const auto report =
        detect::BasicDetector(cfg).on_epoch(detect::EpochSnapshot::of(matrix));
    for (const auto& [a, b] : w.planted)
      EXPECT_TRUE(report.contains(a, b)) << "seed " << seed;
    EXPECT_EQ(report.pairs.size(), w.planted.size()) << "seed " << seed;
  }
}

TEST(CalibrationTest, NoFrequentPairsRaisesTN) {
  // Purely organic history: T_N must land above everything observed.
  World w = make_world(23, /*colluder_pairs=*/0);
  CalibrationOptions options;
  options.frequent_pair_fraction = 0.0;  // nothing qualifies
  const CalibrationReport r = calibrate_thresholds(w.matrix(), options);
  EXPECT_EQ(r.frequent_pairs, 0u);
  EXPECT_GT(static_cast<double>(r.suggested.frequency_min),
            r.max_pair_count);
}

}  // namespace
}  // namespace p2prep::core
