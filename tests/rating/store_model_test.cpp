// Model-based property test: RatingStore against a naive reference model
// over randomized operation sequences (ingest / reset_window /
// transfer_ratee), parameterized by seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "rating/matrix.h"
#include "rating/store.h"
#include "tests/rating/reference_matrix.h"
#include "util/rng.h"

namespace p2prep::rating {
namespace {

/// The obviously-correct reference: plain maps, recomputed aggregates.
struct ModelStore {
  struct Cell {
    PairStats window;
    PairStats lifetime;
  };
  std::map<std::pair<NodeId, NodeId>, Cell> cells;  // (ratee, rater)

  void ingest(const Rating& r) {
    if (r.rater == r.ratee) return;
    auto& cell = cells[{r.ratee, r.rater}];
    cell.window.add(r.score);
    cell.lifetime.add(r.score);
  }
  void reset_window() {
    for (auto& [key, cell] : cells) cell.window = PairStats{};
  }
  void transfer(NodeId ratee) {
    // Transfer within the model is a no-op on totals: the data moves
    // between shards but the union is unchanged. Handled by the harness.
    (void)ratee;
  }
  [[nodiscard]] PairStats window_totals(NodeId ratee) const {
    PairStats total;
    for (const auto& [key, cell] : cells)
      if (key.first == ratee) total += cell.window;
    return total;
  }
  [[nodiscard]] PairStats lifetime_totals(NodeId ratee) const {
    PairStats total;
    for (const auto& [key, cell] : cells)
      if (key.first == ratee) total += cell.lifetime;
    return total;
  }
  [[nodiscard]] PairStats window_pair(NodeId ratee, NodeId rater) const {
    auto it = cells.find({ratee, rater});
    return it == cells.end() ? PairStats{} : it->second.window;
  }
};

class StoreModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreModelTest, RandomOperationSequencesAgree) {
  constexpr std::size_t kNodes = 12;
  util::Rng rng(GetParam());
  RatingStore store(kNodes);
  ModelStore model;

  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.9) {
      Rating r;
      r.rater = static_cast<NodeId>(rng.next_below(kNodes));
      r.ratee = static_cast<NodeId>(rng.next_below(kNodes));
      const double s = rng.next_double();
      r.score = s < 0.5 ? Score::kPositive
                        : (s < 0.85 ? Score::kNegative : Score::kNeutral);
      const bool accepted = store.ingest(r);
      EXPECT_EQ(accepted, r.rater != r.ratee);
      model.ingest(r);
    } else if (dice < 0.95) {
      store.reset_window();
      model.reset_window();
    } else {
      // Spot-check a random ratee against the model.
      const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
      EXPECT_EQ(store.window_totals(ratee), model.window_totals(ratee));
      EXPECT_EQ(store.lifetime_totals(ratee), model.lifetime_totals(ratee));
      const auto rater = static_cast<NodeId>(rng.next_below(kNodes));
      EXPECT_EQ(store.window_pair(ratee, rater),
                model.window_pair(ratee, rater));
    }
  }

  // Full final audit.
  for (NodeId ratee = 0; ratee < kNodes; ++ratee) {
    EXPECT_EQ(store.window_totals(ratee), model.window_totals(ratee));
    EXPECT_EQ(store.lifetime_totals(ratee), model.lifetime_totals(ratee));
    EXPECT_EQ(store.reputation(ratee),
              model.lifetime_totals(ratee).reputation_delta());
    for (NodeId rater = 0; rater < kNodes; ++rater) {
      EXPECT_EQ(store.window_pair(ratee, rater),
                model.window_pair(ratee, rater));
    }
  }
}

TEST_P(StoreModelTest, TransferPreservesUnion) {
  constexpr std::size_t kNodes = 10;
  util::Rng rng(GetParam() ^ 0xabcdef);
  RatingStore a(kNodes);
  RatingStore b(kNodes);
  RatingStore reference(kNodes);

  for (int op = 0; op < 1000; ++op) {
    Rating r;
    r.rater = static_cast<NodeId>(rng.next_below(kNodes));
    r.ratee = static_cast<NodeId>(rng.next_below(kNodes));
    if (r.rater == r.ratee) continue;
    r.score = rng.chance(0.7) ? Score::kPositive : Score::kNegative;
    (rng.chance(0.5) ? a : b).ingest(r);
    reference.ingest(r);

    if (op % 100 == 99) {
      // Shuffle a random ratee's rows between the two stores.
      const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
      if (rng.chance(0.5)) a.transfer_ratee(b, ratee);
      else b.transfer_ratee(a, ratee);
    }
  }

  for (NodeId ratee = 0; ratee < kNodes; ++ratee) {
    const PairStats combined =
        a.window_totals(ratee) + b.window_totals(ratee);
    EXPECT_EQ(combined, reference.window_totals(ratee)) << "ratee " << ratee;
    const PairStats lifetime =
        a.lifetime_totals(ratee) + b.lifetime_totals(ratee);
    EXPECT_EQ(lifetime, reference.lifetime_totals(ratee));
    for (NodeId rater = 0; rater < kNodes; ++rater) {
      EXPECT_EQ(a.window_pair(ratee, rater) + b.window_pair(ratee, rater),
                reference.window_pair(ratee, rater));
    }
  }
}

TEST_P(StoreModelTest, SparseSnapshotSurvivesTransferInterleavings) {
  constexpr std::size_t kNodes = 14;
  util::Rng rng(GetParam() ^ 0x517cc1b7u);
  RatingStore a(kNodes);
  RatingStore b(kNodes);
  RatingStore reference(kNodes);

  for (int op = 0; op < 2000; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.85) {
      Rating r;
      r.rater = static_cast<NodeId>(rng.next_below(kNodes));
      r.ratee = static_cast<NodeId>(rng.next_below(kNodes));
      if (r.rater == r.ratee) continue;
      r.score = rng.chance(0.6) ? Score::kPositive : Score::kNegative;
      (rng.chance(0.5) ? a : b).ingest(r);
      reference.ingest(r);
    } else if (dice < 0.90) {
      // Window rollover hits every shard and the reference in the same
      // step — the two horizons must never diverge across shards.
      a.reset_window();
      b.reset_window();
      reference.reset_window();
    } else if (dice < 0.97) {
      // Shard handoff mid-window.
      const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
      if (rng.chance(0.5)) a.transfer_ratee(b, ratee);
      else b.transfer_ratee(a, ratee);
    } else {
      const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
      EXPECT_EQ(a.window_totals(ratee) + b.window_totals(ratee),
                reference.window_totals(ratee));
      EXPECT_EQ(a.lifetime_totals(ratee) + b.lifetime_totals(ratee),
                reference.lifetime_totals(ratee));
    }
  }

  // Consolidate every row into one store (a transfer storm in itself)
  // and require it to reproduce the reference at both horizons.
  for (NodeId ratee = 0; ratee < kNodes; ++ratee) b.transfer_ratee(a, ratee);
  for (NodeId ratee = 0; ratee < kNodes; ++ratee) {
    EXPECT_EQ(a.window_totals(ratee), reference.window_totals(ratee));
    EXPECT_EQ(a.lifetime_totals(ratee), reference.lifetime_totals(ratee));
    for (NodeId rater = 0; rater < kNodes; ++rater) {
      EXPECT_EQ(a.window_pair(ratee, rater),
                reference.window_pair(ratee, rater));
    }
  }

  // The snapshot a manager would take of the transferred store must read,
  // under both scan-cost rules, as the reference model of the reference
  // store's window.
  std::int64_t max_rep = 1;
  for (NodeId i = 0; i < kNodes; ++i)
    max_rep = std::max(max_rep, reference.reputation(i));
  std::vector<double> reps(kNodes, 0.0);
  for (NodeId i = 0; i < kNodes; ++i) {
    if (reference.reputation(i) > 0)
      reps[i] = static_cast<double>(reference.reputation(i)) /
                static_cast<double>(max_rep);
  }
  testref::ReferenceMatrix model(kNodes, 3);
  for (NodeId i = 0; i < kNodes; ++i) {
    model.set_global_reputation(i, reps[i], 0.05);
    for (NodeId j = 0; j < kNodes; ++j)
      model.restore_cell(i, j, reference.window_pair(i, j));
  }
  for (const ScanCost scan : {ScanCost::kFullRow, ScanCost::kStored})
    testref::expect_matches(RatingMatrix::build(a, reps, 0.05, 3, scan),
                            model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace p2prep::rating
