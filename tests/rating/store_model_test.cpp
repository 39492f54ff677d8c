// Model-based property test of the rating ledger a manager keeps, its
// RatingMatrix, against the reference model (tests/rating/reference_matrix.h)
// over randomized operation sequences: add_rating, clear_window and the
// take_row / restore_cell handoff of a node's row between two managers'
// matrices, parameterized by seed. The suite name predates the matrix
// ledger, when a separate rating store held the ratings.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "rating/matrix.h"
#include "tests/rating/reference_matrix.h"
#include "util/rng.h"

namespace p2prep::rating {
namespace {

Score random_score(util::Rng& rng) {
  const double s = rng.next_double();
  return s < 0.5 ? Score::kPositive
                 : (s < 0.85 ? Score::kNegative : Score::kNeutral);
}

/// Two managers' matrices over the same nodes: node i's row lives in
/// matrix owner[i] only, and a handoff moves it to the other one.
struct TwoManagers {
  std::array<RatingMatrix, 2> matrices;
  std::vector<int> owner;

  TwoManagers(std::size_t nodes, ScanCost scan, std::uint32_t threshold)
      : matrices{RatingMatrix(nodes, scan), RatingMatrix(nodes, scan)},
        owner(nodes, 0) {
    for (RatingMatrix& m : matrices) m.set_frequency_threshold(threshold);
  }
  void add_rating(NodeId ratee, NodeId rater, Score score) {
    matrices[owner[ratee]].add_rating(ratee, rater, score);
  }
  void hand_off(NodeId ratee) {
    RatingMatrix& from = matrices[owner[ratee]];
    owner[ratee] = 1 - owner[ratee];
    RatingMatrix& to = matrices[owner[ratee]];
    const auto cells = from.take_row(ratee);
    to.reserve_cells(ratee, cells.size());
    for (const auto& [rater, stats] : cells) to.restore_cell(ratee, rater, stats);
  }
  [[nodiscard]] const RatingMatrix& of(NodeId ratee) const {
    return matrices[owner[ratee]];
  }
  [[nodiscard]] const RatingMatrix& other(NodeId ratee) const {
    return matrices[1 - owner[ratee]];
  }
};

class StoreModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreModelTest, RandomOperationSequencesAgree) {
  constexpr std::size_t kNodes = 12;
  util::Rng rng(GetParam());
  RatingMatrix m(kNodes, ScanCost::kStored);
  m.set_frequency_threshold(3);
  testref::ReferenceMatrix model(kNodes, 3);

  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.9) {
      const auto rater = static_cast<NodeId>(rng.next_below(kNodes));
      const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
      const Score score = random_score(rng);
      if (rater == ratee) continue;
      m.add_rating(ratee, rater, score);
      model.add_rating(ratee, rater, score);
    } else if (dice < 0.95) {
      m.clear_window();
      model.clear_window();
    } else {
      // Spot-check a random ratee against the model.
      const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
      EXPECT_EQ(m.totals(ratee), model.totals(ratee));
      EXPECT_EQ(m.frequent_totals(ratee), model.frequent_totals(ratee));
      const auto rater = static_cast<NodeId>(rng.next_below(kNodes));
      EXPECT_EQ(m.cell(ratee, rater), model.cell(ratee, rater));
    }
  }
  testref::expect_matches(m, model);
}

TEST_P(StoreModelTest, TransferPreservesUnion) {
  constexpr std::size_t kNodes = 10;
  util::Rng rng(GetParam() ^ 0xabcdef);
  TwoManagers managers(kNodes, ScanCost::kStored, 3);
  testref::ReferenceMatrix reference(kNodes, 3);

  for (int op = 0; op < 1000; ++op) {
    const auto rater = static_cast<NodeId>(rng.next_below(kNodes));
    const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
    if (rater == ratee) continue;
    const Score score =
        rng.chance(0.7) ? Score::kPositive : Score::kNegative;
    managers.add_rating(ratee, rater, score);
    reference.add_rating(ratee, rater, score);

    if (op % 100 == 99)  // move a random ratee's row to the other manager
      managers.hand_off(static_cast<NodeId>(rng.next_below(kNodes)));
  }

  for (NodeId ratee = 0; ratee < kNodes; ++ratee) {
    EXPECT_EQ(managers.of(ratee).totals(ratee), reference.totals(ratee))
        << "ratee " << ratee;
    EXPECT_EQ(managers.other(ratee).totals(ratee).total, 0u);
    EXPECT_EQ(managers.of(ratee).frequent_totals(ratee),
              reference.frequent_totals(ratee));
    for (NodeId rater = 0; rater < kNodes; ++rater) {
      EXPECT_EQ(managers.of(ratee).cell(ratee, rater),
                reference.cell(ratee, rater));
    }
  }
}

TEST_P(StoreModelTest, SparseSnapshotSurvivesTransferInterleavings) {
  constexpr std::size_t kNodes = 14;
  for (const ScanCost scan : {ScanCost::kFullRow, ScanCost::kStored}) {
    SCOPED_TRACE(testref::arm_name(scan));
    util::Rng rng(GetParam() ^ 0x517cc1b7u);
    TwoManagers managers(kNodes, scan, 3);
    testref::ReferenceMatrix reference(kNodes, 3);

    for (int op = 0; op < 2000; ++op) {
      const double dice = rng.next_double();
      if (dice < 0.85) {
        const auto rater = static_cast<NodeId>(rng.next_below(kNodes));
        const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
        if (rater == ratee) continue;
        const Score score =
            rng.chance(0.6) ? Score::kPositive : Score::kNegative;
        managers.add_rating(ratee, rater, score);
        reference.add_rating(ratee, rater, score);
      } else if (dice < 0.90) {
        // Window rollover hits every manager and the reference in the
        // same step.
        for (RatingMatrix& m : managers.matrices) m.clear_window();
        reference.clear_window();
      } else if (dice < 0.97) {
        // Handoff mid-window.
        managers.hand_off(static_cast<NodeId>(rng.next_below(kNodes)));
      } else {
        const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
        EXPECT_EQ(managers.of(ratee).totals(ratee), reference.totals(ratee));
      }
    }

    // Consolidate every row into matrix 0 (a handoff storm in itself);
    // it must then read as the reference model.
    for (NodeId ratee = 0; ratee < kNodes; ++ratee)
      if (managers.owner[ratee] != 0) managers.hand_off(ratee);
    testref::expect_matches(managers.matrices[0], reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace p2prep::rating
