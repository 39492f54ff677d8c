// Robustness / fuzz-style tests: malformed inputs must fail cleanly, and
// the detectors must behave sanely on arbitrary (adversarial) matrices.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "detect/basic_detector.h"
#include "detect/group_detector.h"
#include "detect/optimized_detector.h"
#include "dht/chord.h"
#include "rating/matrix.h"
#include "trace/io.h"
#include "util/rng.h"

namespace p2prep {
namespace {

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, TraceParserNeverCrashesOnGarbage) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const std::size_t len = rng.next_below(400);
    for (std::size_t k = 0; k < len; ++k) {
      // Bias toward CSV-ish characters so parsing goes deep sometimes.
      const double dice = rng.next_double();
      if (dice < 0.3) garbage += static_cast<char>('0' + rng.next_below(10));
      else if (dice < 0.5) garbage += ',';
      else if (dice < 0.6) garbage += '\n';
      else garbage += static_cast<char>(32 + rng.next_below(95));
    }
    // Sometimes prefix a valid header so body parsing is exercised.
    if (rng.chance(0.5)) garbage = "rater,ratee,stars,day\n" + garbage;
    std::stringstream ss(garbage);
    const auto parsed = trace::read_trace_csv(ss);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error.message.empty());
    } else {
      for (const auto& r : *parsed.value) {
        EXPECT_GE(r.stars, 1);
        EXPECT_LE(r.stars, 5);
      }
    }
  }
}

TEST_P(FuzzSeedTest, DetectorsSaneOnRandomMatrices) {
  util::Rng rng(GetParam() ^ 0x1234);
  constexpr std::size_t kN = 25;
  std::vector<rating::Rating> ratings;
  // Arbitrary rating soup, including extreme frequencies.
  const std::size_t events = 200 + rng.next_below(3000);
  for (std::size_t k = 0; k < events; ++k) {
    rating::Rating r;
    r.rater = static_cast<rating::NodeId>(rng.next_below(kN));
    r.ratee = static_cast<rating::NodeId>(rng.next_below(kN));
    const double dice = rng.next_double();
    r.score = dice < 0.45 ? rating::Score::kPositive
                          : (dice < 0.9 ? rating::Score::kNegative
                                        : rating::Score::kNeutral);
    if (r.rater != r.ratee) ratings.push_back(r);
  }
  std::vector<double> reps(kN);
  for (auto& rep : reps) rep = rng.uniform(-1.0, 1.0);

  core::DetectorConfig config;
  config.positive_fraction_min = rng.uniform(0.1, 1.0);
  config.complement_fraction_max = rng.uniform(0.0, 0.9);
  config.frequency_min = 1 + static_cast<std::uint32_t>(rng.next_below(50));
  config.high_rep_threshold = rng.uniform(-0.5, 0.5);
  rating::RatingMatrix matrix(kN);
  matrix.set_frequency_threshold(config.frequency_min);
  for (const rating::Rating& r : ratings)
    matrix.add_rating(r.ratee, r.rater, r.score);
  for (rating::NodeId i = 0; i < kN; ++i)
    matrix.set_global_reputation(i, reps[i], config.high_rep_threshold);

  const auto snapshot = detect::EpochSnapshot::of(matrix);
  const auto basic = detect::BasicDetector(config).on_epoch(snapshot);
  const auto optimized = detect::OptimizedDetector(config).on_epoch(snapshot);
  const auto groups = detect::detect_groups(snapshot, config);

  // Reports are canonical: ordered pairs, ids in range, cost sane.
  auto check = [&](const core::DetectionReport& report) {
    for (std::size_t i = 0; i < report.pairs.size(); ++i) {
      const auto& e = report.pairs[i];
      EXPECT_LT(e.first, e.second);
      EXPECT_LT(e.second, kN);
      if (i > 0) {
        EXPECT_LT(core::pair_key(report.pairs[i - 1].first,
                                 report.pairs[i - 1].second),
                  core::pair_key(e.first, e.second));
      }
    }
    EXPECT_GT(report.cost.total(), 0u);
  };
  check(basic);
  check(optimized);
  // Joint-complement mode: the two methods agree exactly.
  std::vector<std::uint64_t> kb;
  std::vector<std::uint64_t> ko;
  for (const auto& e : basic.pairs) kb.push_back(core::pair_key(e.first, e.second));
  for (const auto& e : optimized.pairs) ko.push_back(core::pair_key(e.first, e.second));
  EXPECT_EQ(kb, ko);

  for (const auto& g : groups.groups) {
    EXPECT_GE(g.members.size(), 2u);
    for (rating::NodeId m : g.members) EXPECT_LT(m, kN);
  }
}

TEST_P(FuzzSeedTest, ChordChurnSequencesKeepInvariants) {
  util::Rng rng(GetParam() ^ 0x777);
  dht::ChordRing ring;
  std::size_t members = 0;
  for (int op = 0; op < 120; ++op) {
    const auto id = static_cast<rating::NodeId>(rng.next_below(64));
    if (rng.chance(0.6)) {
      if (ring.add_node(id)) ++members;
    } else if (members > 1) {
      if (ring.remove_node(id)) --members;
    }
    if (members == 0) {
      ring.add_node(0);
      members = 1;
    }
    ring.rebuild();
    EXPECT_EQ(ring.size(), members);
    // Lookups from any member resolve to the oracle owner.
    rating::NodeId start = rating::kInvalidNode;
    for (rating::NodeId candidate = 0; candidate < 64; ++candidate) {
      if (ring.contains(candidate)) {
        start = candidate;
        break;
      }
    }
    ASSERT_NE(start, rating::kInvalidNode);
    const dht::Key key = rng.next();
    EXPECT_EQ(ring.lookup(start, key).owner, ring.owner_of(key));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace p2prep
