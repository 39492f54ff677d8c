// Scale smoke tests: the Optimized path must stay tractable well beyond
// the paper's 200-node setting.
#include <gtest/gtest.h>

#include <chrono>

#include "detect/optimized_detector.h"
#include "managers/centralized.h"
#include "reputation/summation.h"
#include "util/rng.h"

namespace p2prep {
namespace {

TEST(ScaleTest, OptimizedDetectionAtTwoThousandNodes) {
  constexpr std::size_t kN = 2000;
  reputation::SummationEngine engine;
  core::DetectorConfig config;
  config.positive_fraction_min = 0.8;
  config.complement_fraction_max = 0.2;
  config.frequency_min = 20;
  config.high_rep_threshold = 0.05;
  managers::CentralizedManager mgr(kN, engine, config);

  util::Rng rng(2000);
  // 20 colluding pairs + 60k organic ratings.
  for (std::size_t p = 0; p < 20; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    for (int k = 0; k < 40; ++k) {
      mgr.ingest({a, b, rating::Score::kPositive, 0});
      mgr.ingest({b, a, rating::Score::kPositive, 0});
    }
  }
  for (std::size_t k = 0; k < 60000; ++k) {
    auto rater = static_cast<rating::NodeId>(rng.next_below(kN));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(kN));
    if (rater == ratee) ratee = static_cast<rating::NodeId>((ratee + 1) % kN);
    mgr.ingest({rater, ratee,
                rng.chance(ratee < 40 ? 0.05 : 0.85)
                    ? rating::Score::kPositive
                    : rating::Score::kNegative,
                0});
  }
  mgr.update_reputations();

  const auto start = std::chrono::steady_clock::now();
  detect::OptimizedDetector detector(config);
  const auto report = mgr.run_detection(detector);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  for (std::size_t p = 0; p < 20; ++p) {
    EXPECT_TRUE(report.contains(static_cast<rating::NodeId>(2 * p),
                                static_cast<rating::NodeId>(2 * p + 1)))
        << "pair " << p;
  }
  EXPECT_EQ(report.pairs.size(), 20u);
  // O(m n) detection over 2000 nodes must complete interactively. Very
  // generous bound to stay robust on slow CI machines.
  EXPECT_LT(elapsed.count(), 5000);
}

}  // namespace
}  // namespace p2prep
