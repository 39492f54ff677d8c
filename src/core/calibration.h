// Threshold calibration from historical rating data — the paper's first
// stated future work ("how to determine the threshold values used in this
// paper effectively and efficiently according to the given system
// parameters").
//
// The paper's own procedure for its trace (Sec. III/IV-B): look at the
// per-pair interaction-frequency distribution (normal buyer-seller pairs
// average ~1 transaction/year; colluders 20-55), pick T_N above the
// normal population, then take the a/b statistics of the pairs above T_N
// (crawl averages a = 98.37%, b = 1.63%) and place T_a / T_b between the
// frequent-pair population and the global baseline. This module implements
// exactly that procedure over the window a RatingMatrix holds:
//
//  * T_N  — the smallest count such that at most `frequent_pair_fraction`
//           of rated pairs reach it (an upper-tail quantile of the pair
//           frequency distribution).
//  * T_a  — midway between the mean positive fraction of frequent pairs
//           and the global positive fraction (colluders sit near 1, the
//           baseline near service quality).
//  * T_b  — midway between the mean complement fraction of frequent
//           ratees and the global positive fraction.
//
// The result is a suggestion: calibrate() reports the population
// statistics it derived so an operator can audit them.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "rating/matrix.h"

namespace p2prep::core {

struct CalibrationOptions {
  /// Upper-tail mass of the per-pair frequency distribution treated as
  /// "frequent" (the paper's 18-of-many sellers filter is ~this order).
  double frequent_pair_fraction = 0.01;
  /// Floor for T_N so single-digit noise never counts as frequent.
  std::uint32_t min_frequency = 3;
};

struct CalibrationReport {
  /// The suggested thresholds (other DetectorConfig fields untouched).
  DetectorConfig suggested;

  // Derived population statistics, for auditing.
  std::uint64_t rated_pairs = 0;       ///< Distinct (rater, ratee) pairs.
  std::uint64_t frequent_pairs = 0;    ///< Pairs at/above suggested T_N.
  double mean_pair_count = 0.0;        ///< Mean ratings per pair.
  double max_pair_count = 0.0;
  double global_positive_fraction = 0.0;
  double frequent_positive_fraction = 0.0;  ///< Mean a over frequent pairs.
  double frequent_complement_fraction = 0.0;///< Mean b over their ratees.
};

/// Derives thresholds from the window cells of `history`, visited in
/// ascending (ratee, rater) order. `base` supplies the non-threshold
/// fields of the returned config.
[[nodiscard]] CalibrationReport calibrate_thresholds(
    const rating::RatingMatrix& history,
    const CalibrationOptions& options = {}, const DetectorConfig& base = {});

}  // namespace p2prep::core
