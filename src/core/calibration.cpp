#include "core/calibration.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace p2prep::core {

CalibrationReport calibrate_thresholds(const rating::RatingMatrix& history,
                                       const CalibrationOptions& options,
                                       const DetectorConfig& base) {
  CalibrationReport report;
  report.suggested = base;

  struct PairSample {
    rating::NodeId ratee;
    rating::NodeId rater;
    rating::PairStats stats;
  };
  std::vector<PairSample> pairs;
  rating::PairStats global;
  for (rating::NodeId ratee = 0; ratee < history.size(); ++ratee) {
    history.for_each_nonzero_cell(
        ratee, [&](rating::NodeId rater, const rating::PairStats& stats) {
          pairs.push_back({ratee, rater, stats});
          global += stats;
        });
  }
  report.rated_pairs = pairs.size();
  if (pairs.empty()) return report;

  report.global_positive_fraction = global.positive_fraction();

  // --- T_N: upper-tail quantile of the pair-frequency distribution ---
  std::vector<std::uint32_t> counts;
  counts.reserve(pairs.size());
  double sum = 0.0;
  for (const PairSample& p : pairs) {
    counts.push_back(p.stats.total);
    sum += p.stats.total;
  }
  std::sort(counts.begin(), counts.end());
  report.mean_pair_count = sum / static_cast<double>(counts.size());
  report.max_pair_count = static_cast<double>(counts.back());
  const auto cut_index = static_cast<std::size_t>(
      (1.0 - options.frequent_pair_fraction) *
      static_cast<double>(counts.size() - 1));
  std::uint32_t t_n = std::max(options.min_frequency, counts[cut_index] + 1);
  report.suggested.frequency_min = t_n;

  // --- Population statistics of the frequent pairs ---
  double a_sum = 0.0;
  double b_sum = 0.0;
  std::size_t frequent = 0;
  for (const PairSample& p : pairs) {
    if (p.stats.total < t_n) continue;
    ++frequent;
    a_sum += p.stats.positive_fraction();
    const rating::PairStats complement =
        history.totals(p.ratee) - p.stats;
    b_sum += complement.positive_fraction();
  }
  report.frequent_pairs = frequent;
  if (frequent == 0) {
    // No frequent pairs at all: keep the base thresholds; T_N above the
    // observed maximum so nothing triggers until behaviour changes.
    report.suggested.frequency_min =
        static_cast<std::uint32_t>(report.max_pair_count) + 1;
    return report;
  }
  report.frequent_positive_fraction = a_sum / static_cast<double>(frequent);
  report.frequent_complement_fraction = b_sum / static_cast<double>(frequent);

  // --- T_a / T_b: midpoints between populations (paper Sec. IV-B) ---
  const double t_a = 0.5 * (report.frequent_positive_fraction +
                            report.global_positive_fraction);
  const double t_b = 0.5 * (report.frequent_complement_fraction +
                            report.global_positive_fraction);
  report.suggested.positive_fraction_min = std::clamp(t_a, 0.05, 1.0);
  report.suggested.complement_fraction_max = std::clamp(t_b, 0.0, 0.99);
  return report;
}

}  // namespace p2prep::core
