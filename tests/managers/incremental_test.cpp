#include "managers/centralized.h"

#include <gtest/gtest.h>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "reputation/summation.h"
#include "util/rng.h"

namespace p2prep::managers {
namespace {

using rating::Rating;
using rating::Score;

core::DetectorConfig config() {
  core::DetectorConfig c;
  c.positive_fraction_min = 0.8;
  c.complement_fraction_max = 0.2;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  return c;
}

/// Streams a random workload with two colluding pairs.
template <typename Fn>
void stream_workload(std::uint64_t seed, std::size_t n, Fn&& deliver) {
  util::Rng rng(seed);
  // Two colluding pairs.
  for (int k = 0; k < 40; ++k) {
    deliver({0, 1, Score::kPositive, 0});
    deliver({1, 0, Score::kPositive, 0});
    deliver({2, 3, Score::kPositive, 0});
    deliver({3, 2, Score::kPositive, 0});
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 5; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      deliver({rater, ratee,
               rng.chance(ratee < 4 ? 0.05 : 0.85) ? Score::kPositive
                                                   : Score::kNegative,
               0});
    }
  }
}

// The live matrix detects exactly what a matrix filled after the fact
// from the same ratings detects.
TEST(IncrementalManagerTest, MatchesSnapshotManagerDetection) {
  constexpr std::size_t kN = 50;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    reputation::SummationEngine engine_a;
    reputation::SummationEngine engine_b;
    engine_a.resize(kN);
    std::vector<Rating> accepted;
    CentralizedManager incremental(kN, engine_b, config());

    stream_workload(seed, kN, [&](const Rating& r) {
      EXPECT_TRUE(incremental.ingest(r));
      engine_a.ingest(r);
      accepted.push_back(r);
    });
    engine_a.update_epoch();
    incremental.update_reputations();

    rating::RatingMatrix snapshot(kN);
    snapshot.set_frequency_threshold(config().frequency_min);
    for (const Rating& r : accepted)
      snapshot.add_rating(r.ratee, r.rater, r.score);
    for (rating::NodeId i = 0; i < kN; ++i)
      snapshot.set_global_reputation(i, engine_a.detection_reputation(i),
                                     config().high_rep_threshold);

    detect::OptimizedDetector detector(config());
    const auto ra = detector.on_epoch(detect::EpochSnapshot::of(snapshot));
    const auto rb = incremental.run_detection(detector);
    ASSERT_EQ(ra.pairs.size(), rb.pairs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ra.pairs.size(); ++i) {
      EXPECT_EQ(ra.pairs[i].first, rb.pairs[i].first);
      EXPECT_EQ(ra.pairs[i].second, rb.pairs[i].second);
    }
    EXPECT_EQ(ra.cost.total(), rb.cost.total()) << "seed " << seed;
    EXPECT_EQ(ra.colluders().size(), incremental.detected().size());
  }
}

TEST(IncrementalManagerTest, DetectsAndSuppresses) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(30, engine, config());
  stream_workload(9, 30, [&](const Rating& r) { mgr.ingest(r); });
  mgr.update_reputations();
  detect::BasicDetector detector(config());
  const auto report = mgr.run_detection(detector);
  EXPECT_TRUE(report.contains(0, 1));
  EXPECT_TRUE(report.contains(2, 3));
  EXPECT_EQ(engine.reputation(0), 0.0);
  EXPECT_TRUE(mgr.detected().contains(0));
}

TEST(IncrementalManagerTest, WindowResetClearsCounters) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(20, engine, config());
  stream_workload(5, 20, [&](const Rating& r) { mgr.ingest(r); });
  mgr.update_reputations();
  mgr.reset_window();
  EXPECT_EQ(mgr.matrix().totals(1).total, 0u);
  detect::OptimizedDetector detector(config());
  EXPECT_TRUE(mgr.run_detection(detector).pairs.empty());
  // Reputations survive the window rollover.
  EXPECT_GT(engine.reputation(1), 0.0);
}

TEST(IncrementalManagerTest, RejectsInvalidRatings) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(10, engine, config());
  EXPECT_FALSE(mgr.ingest({3, 3, Score::kPositive, 0}));
  EXPECT_FALSE(mgr.ingest({3, 10, Score::kPositive, 0}));
  EXPECT_FALSE(mgr.ingest({10, 3, Score::kPositive, 0}));
}

TEST(IncrementalManagerTest, FrequentAggregateMaintained) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(10, engine, config());
  for (int k = 0; k < 25; ++k)
    mgr.ingest({0, 1, Score::kPositive, 0});
  EXPECT_EQ(mgr.matrix().frequent_totals(1).total, 25u);
  EXPECT_EQ(mgr.matrix().frequency_threshold(), config().frequency_min);
}

}  // namespace
}  // namespace p2prep::managers
