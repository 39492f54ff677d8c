// Shared randomized collusion workloads for the differential suites
// (tests/differential/, tests/detect/). The traces bury colluding pairs
// exchanging frequent positives (the Fig. 3 signature) in zipf-skewed
// organic traffic; the per-seed DetectorConfig sweeps the joint-complement,
// mutuality and accomplice feature mix so 100 seeds cover every verdict
// code path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "rating/matrix.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace p2prep::testgen {

struct Trace {
  std::size_t n = 0;
  std::size_t colluders = 0;  ///< Nodes 0..colluders-1 form boosting pairs.
  std::vector<rating::Rating> ratings;
};

/// Randomized workload: 1-3 colluding pairs exchanging frequent positives
/// (the Fig. 3 signature), buried in zipf-skewed organic traffic where
/// colluders collect mostly-negative ratings from everyone else (C2) and
/// honest nodes collect mostly-positive ones.
inline Trace make_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  Trace t;
  t.n = 24 + rng.next_below(25);
  const std::size_t pairs = 1 + rng.next_below(3);
  t.colluders = 2 * pairs;
  rating::Tick tick = 0;
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    const std::size_t boosts = 25 + rng.next_below(31);
    for (std::size_t k = 0; k < boosts; ++k) {
      t.ratings.push_back({a, b, rating::Score::kPositive, tick++});
      t.ratings.push_back({b, a, rating::Score::kPositive, tick++});
    }
  }
  const std::size_t organic = 600 + rng.next_below(1001);
  for (std::size_t e = 0; e < organic; ++e) {
    const auto rater = static_cast<rating::NodeId>(util::zipf(rng, t.n));
    auto ratee = static_cast<rating::NodeId>(util::zipf(rng, t.n, 0.8));
    if (ratee == rater)
      ratee = static_cast<rating::NodeId>((ratee + 1) % t.n);
    const bool victim_is_colluder =
        ratee < t.colluders && rater >= t.colluders;
    rating::Score score;
    if (rng.chance(victim_is_colluder ? 0.08 : 0.85))
      score = rating::Score::kPositive;
    else if (rng.chance(0.1))
      score = rating::Score::kNeutral;
    else
      score = rating::Score::kNegative;
    t.ratings.push_back({rater, ratee, score, tick++});
  }
  return t;
}

/// Organic-only traffic at scale: `ratings` ratings over `n` nodes with
/// make_trace's zipf rater/ratee skew and score mix, no planted pairs. For
/// tests that need a realistically shaped matrix rather than verdicts
/// (e.g. the matrix memory-model check).
inline Trace make_zipf_trace(std::uint64_t seed, std::size_t n,
                             std::size_t ratings) {
  util::Rng rng(seed);
  Trace t;
  t.n = n;
  t.ratings.reserve(ratings);
  for (rating::Tick tick = 0; tick < ratings; ++tick) {
    const auto rater = static_cast<rating::NodeId>(util::zipf(rng, n));
    auto ratee = static_cast<rating::NodeId>(util::zipf(rng, n, 0.8));
    if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
    rating::Score score;
    if (rng.chance(0.85))
      score = rating::Score::kPositive;
    else if (rng.chance(0.1))
      score = rating::Score::kNeutral;
    else
      score = rating::Score::kNegative;
    t.ratings.push_back({rater, ratee, score, tick});
  }
  return t;
}

/// Host reputations derived deterministically from each node's summation
/// value N+_i - N-_i over `t`'s ratings, normalized to [0, 1]. Colluding
/// pairs land high (C1).
inline std::vector<double> reputations_of(const Trace& t) {
  std::vector<std::int64_t> sums(t.n, 0);
  for (const rating::Rating& r : t.ratings)
    sums[r.ratee] += rating::score_value(r.score);
  const std::int64_t max_rep =
      std::max<std::int64_t>(1, *std::max_element(sums.begin(), sums.end()));
  std::vector<double> reps(t.n, 0.0);
  for (rating::NodeId i = 0; i < t.n; ++i) {
    if (sums[i] > 0)
      reps[i] = static_cast<double>(sums[i]) / static_cast<double>(max_rep);
  }
  return reps;
}

/// The window matrix of `ratings` over `reps.size()` nodes under `scan`:
/// frequent aggregates at `frequency_threshold`, node i high-reputed when
/// reps[i] > high_rep_threshold.
inline rating::RatingMatrix window_matrix(
    std::span<const rating::Rating> ratings, std::span<const double> reps,
    double high_rep_threshold, std::uint32_t frequency_threshold,
    rating::ScanCost scan) {
  rating::RatingMatrix m(reps.size(), scan);
  m.set_frequency_threshold(frequency_threshold);
  for (const rating::Rating& r : ratings)
    m.add_rating(r.ratee, r.rater, r.score);
  for (rating::NodeId i = 0; i < reps.size(); ++i)
    m.set_global_reputation(i, reps[i], high_rep_threshold);
  return m;
}

/// Per-seed threshold/feature mix so the differential coverage spans the
/// joint-complement, mutuality and accomplice code paths.
inline core::DetectorConfig config_for(std::uint64_t seed) {
  core::DetectorConfig cfg;
  cfg.positive_fraction_min = 0.80;
  cfg.complement_fraction_max = 0.25;
  cfg.frequency_min = 10;
  cfg.high_rep_threshold = 0.05;
  cfg.joint_complement = (seed % 2) == 0;
  cfg.require_mutual = (seed % 3) != 0;
  cfg.flag_accomplices = (seed % 4) != 0;
  return cfg;
}

}  // namespace p2prep::testgen
