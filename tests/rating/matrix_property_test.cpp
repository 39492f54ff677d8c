// Property: the incrementally-maintained RatingMatrix (add_rating with a
// frequency threshold) agrees with a from-scratch recompute — the
// reference model (tests/rating/reference_matrix.h) — on random rating
// streams: cells, totals, and the frequent-rater aggregates the Optimized
// detector's joint-complement test depends on.
#include <gtest/gtest.h>

#include "rating/matrix.h"
#include "tests/rating/reference_matrix.h"
#include "util/rng.h"

namespace p2prep::rating {
namespace {

class MatrixIncrementalTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MatrixIncrementalTest, IncrementalMatchesSnapshot) {
  constexpr std::size_t kNodes = 15;
  constexpr std::uint32_t kThreshold = 5;
  util::Rng rng(GetParam());

  testref::ReferenceMatrix snapshot(kNodes, kThreshold);
  RatingMatrix incremental(kNodes);
  incremental.set_frequency_threshold(kThreshold);

  for (int k = 0; k < 2000; ++k) {
    Rating r;
    r.rater = static_cast<NodeId>(rng.next_below(kNodes));
    r.ratee = static_cast<NodeId>(rng.next_below(kNodes));
    if (r.rater == r.ratee) continue;
    const double s = rng.next_double();
    r.score = s < 0.6 ? Score::kPositive
                      : (s < 0.9 ? Score::kNegative : Score::kNeutral);
    snapshot.add_rating(r.ratee, r.rater, r.score);
    incremental.add_rating(r.ratee, r.rater, r.score);
  }

  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_EQ(incremental.totals(i), snapshot.totals(i)) << "row " << i;
    EXPECT_EQ(incremental.frequent_totals(i), snapshot.frequent_totals(i))
        << "row " << i;
    EXPECT_EQ(incremental.window_reputation(i),
              snapshot.totals(i).reputation_delta());
    for (NodeId j = 0; j < kNodes; ++j)
      EXPECT_EQ(incremental.cell(i, j), snapshot.cell(i, j))
          << i << "," << j;
  }
}

TEST_P(MatrixIncrementalTest, FrequentAggregateEqualsManualSum) {
  constexpr std::size_t kNodes = 12;
  constexpr std::uint32_t kThreshold = 4;
  util::Rng rng(GetParam() ^ 0x5a5a);

  RatingMatrix m(kNodes);
  m.set_frequency_threshold(kThreshold);
  for (int k = 0; k < 1500; ++k) {
    const auto rater = static_cast<NodeId>(rng.next_below(kNodes));
    auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
    if (ratee == rater) ratee = static_cast<NodeId>((ratee + 1) % kNodes);
    m.add_rating(ratee, rater,
                 rng.chance(0.7) ? Score::kPositive : Score::kNegative);
  }

  for (NodeId i = 0; i < kNodes; ++i) {
    PairStats manual;
    for (NodeId j = 0; j < kNodes; ++j) {
      if (m.cell(i, j).total >= kThreshold) manual += m.cell(i, j);
    }
    EXPECT_EQ(m.frequent_totals(i), manual) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixIncrementalTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace p2prep::rating
