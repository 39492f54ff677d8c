// Cross-method properties: on +/-1 rating workloads the Optimized method
// never misses a pair the Basic method flags (Formula (2) describes a
// superset region), and on collusion-structured workloads the two methods
// flag identical pairs while Optimized does asymptotically less work —
// the paper's "much lower computation cost without compromising the
// collusion detection performance".
#include <gtest/gtest.h>

#include <algorithm>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "tests/core/scenario.h"
#include "util/rng.h"

namespace p2prep::core {
namespace {

using testing::Scenario;

DetectorConfig config() {
  DetectorConfig c;
  c.positive_fraction_min = 0.8;
  // 0.21 rather than a round 0.2: small complement samples often produce
  // the exact fraction 1/5, and b == T_b is the one boundary where the two
  // methods legitimately differ (strict < in Basic, inclusive Formula (2)
  // upper bound in Optimized). An unrealizable threshold keeps the
  // equality property exact without weakening it.
  c.complement_fraction_max = 0.21;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  // Compare the raw pairwise predicates.
  c.flag_accomplices = false;
  return c;
}

std::vector<std::uint64_t> keys(const DetectionReport& r) {
  std::vector<std::uint64_t> out;
  for (const auto& e : r.pairs) out.push_back(pair_key(e.first, e.second));
  std::sort(out.begin(), out.end());
  return out;
}

/// Random rating world with planted colluders: nodes rate random targets
/// with quality-dependent scores; colluding pairs bombard each other.
rating::RatingMatrix random_world(std::uint64_t seed, std::size_t n,
                                  std::size_t colluder_pairs) {
  util::Rng rng(seed);
  Scenario s(n);
  for (std::size_t p = 0; p < colluder_pairs; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    // >= 40 mutual positives: organic negatives between partners can then
    // never drag the pair's positive fraction near the T_a boundary, where
    // Basic and Optimized may legitimately disagree.
    s.collude(a, b, 40 + rng.next_below(40));
  }
  // Organic ratings: every node rates a handful of random targets.
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    const std::size_t outgoing = 1 + rng.next_below(8);
    for (std::size_t k = 0; k < outgoing; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      // Colluders provide uniformly poor service: their complement samples
      // are tiny (a handful of ratings), so any positive noise would land
      // them on the wrong side of T_b and make these logical property
      // tests flaky. The simulator tests cover noisy service quality.
      const bool target_is_colluder = ratee < 2 * colluder_pairs;
      const double positive_prob = target_is_colluder ? 0.0 : 0.85;
      const std::size_t burst = 1 + rng.next_below(3);
      for (std::size_t r = 0; r < burst; ++r) {
        s.rate(rater, ratee, 1,
               rng.chance(positive_prob) ? rating::Score::kPositive
                                         : rating::Score::kNegative);
      }
    }
  }
  // Everyone is high-reputed so the detectors examine every row.
  s.set_all_reps(0.2);
  return s.build();
}

TEST(DetectorEquivalenceTest, OptimizedIsSupersetOfBasicOnRandomWorlds) {
  // Paper-literal mode: Formula (2) describes a superset of the Basic
  // (a, b) region. (In joint-complement mode the two methods evaluate the
  // same predicate and are exactly equal — covered below.)
  DetectorConfig c = config();
  c.joint_complement = false;
  detect::BasicDetector basic(c);
  detect::OptimizedDetector optimized(c);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto matrix = random_world(seed, 60, 4);
    const auto kb = keys(basic.on_epoch(detect::EpochSnapshot::of(matrix)));
    const auto ko = keys(optimized.on_epoch(detect::EpochSnapshot::of(matrix)));
    EXPECT_TRUE(std::includes(ko.begin(), ko.end(), kb.begin(), kb.end()))
        << "seed " << seed << ": Basic found a pair Optimized missed";
  }
}

TEST(DetectorEquivalenceTest, IdenticalOnCollusionWorkloads) {
  // On the structured workloads of the paper's evaluation the two methods
  // agree exactly (Sec. V-B: "Unoptimized and Optimized generate the same
  // results in collusion detection").
  const DetectorConfig c = config();
  detect::BasicDetector basic(c);
  detect::OptimizedDetector optimized(c);
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const auto matrix = random_world(seed, 80, 6);
    const auto snapshot = detect::EpochSnapshot::of(matrix);
    EXPECT_EQ(keys(basic.on_epoch(snapshot)),
              keys(optimized.on_epoch(snapshot)))
        << "seed " << seed;
  }
}

TEST(DetectorEquivalenceTest, BothFindAllPlantedPairs) {
  const DetectorConfig c = config();
  for (std::uint64_t seed = 40; seed < 45; ++seed) {
    const auto matrix = random_world(seed, 100, 5);
    const auto snapshot = detect::EpochSnapshot::of(matrix);
    const auto rb = detect::BasicDetector(c).on_epoch(snapshot);
    const auto ro = detect::OptimizedDetector(c).on_epoch(snapshot);
    for (std::size_t p = 0; p < 5; ++p) {
      const auto a = static_cast<rating::NodeId>(2 * p);
      const auto b = static_cast<rating::NodeId>(2 * p + 1);
      EXPECT_TRUE(rb.contains(a, b)) << "basic seed " << seed << " pair " << p;
      EXPECT_TRUE(ro.contains(a, b))
          << "optimized seed " << seed << " pair " << p;
    }
  }
}

TEST(DetectorEquivalenceTest, OptimizedCostAsymptoticallySmaller) {
  const DetectorConfig c = config();
  // Growing n with everything high-reputed: Basic is O(m n^2) because each
  // triggered pair costs a row scan; Optimized is O(m n). Compare scan
  // growth between two sizes.
  const auto m1 = random_world(7, 60, 6);
  const auto m2 = random_world(7, 240, 6);
  const auto b1 =
      detect::BasicDetector(c).on_epoch(detect::EpochSnapshot::of(m1)).cost;
  const auto b2 =
      detect::BasicDetector(c).on_epoch(detect::EpochSnapshot::of(m2)).cost;
  const auto o1 =
      detect::OptimizedDetector(c).on_epoch(detect::EpochSnapshot::of(m1)).cost;
  const auto o2 =
      detect::OptimizedDetector(c).on_epoch(detect::EpochSnapshot::of(m2)).cost;

  EXPECT_GT(b1.total(), o1.total());
  EXPECT_GT(b2.total(), o2.total());
  // Optimized scan growth is ~(n2/n1)^2 only because m also grows with n
  // here (all rows live): scans ~ m*n. Check it stays near 16x while the
  // advantage over Basic persists at scale.
  const double opt_growth = static_cast<double>(o2.total()) /
                            static_cast<double>(o1.total());
  EXPECT_LT(opt_growth, 20.0);
  EXPECT_GT(static_cast<double>(b2.total()) / static_cast<double>(o2.total()),
            static_cast<double>(b1.total()) /
                static_cast<double>(o1.total()) * 0.8);
}

TEST(DetectorEquivalenceTest, ThresholdTighteningMonotonic) {
  // Raising T_a (or lowering T_b) can only shrink the detected set.
  const auto matrix = random_world(3, 80, 6);
  DetectorConfig loose = config();
  loose.positive_fraction_min = 0.7;
  loose.complement_fraction_max = 0.3;
  DetectorConfig tight = config();
  tight.positive_fraction_min = 0.95;
  tight.complement_fraction_max = 0.1;
  const auto snapshot = detect::EpochSnapshot::of(matrix);
  const auto kl = keys(detect::BasicDetector(loose).on_epoch(snapshot));
  const auto kt = keys(detect::BasicDetector(tight).on_epoch(snapshot));
  EXPECT_TRUE(std::includes(kl.begin(), kl.end(), kt.begin(), kt.end()));
}

}  // namespace
}  // namespace p2prep::core
