#include "rating/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "tests/rating/reference_matrix.h"
#include "util/rng.h"

namespace p2prep::rating {
namespace {

/// Node 1 rated by 0 (2 pos), by 2 (1 neg); node 2 rated by 3 (1 pos).
/// Node i's global reputation is reps[i], against T_R = 0.05.
RatingMatrix populated_matrix(const std::vector<double>& reps) {
  RatingMatrix m(reps.size());
  m.add_rating(1, 0, Score::kPositive);
  m.add_rating(1, 0, Score::kPositive);
  m.add_rating(1, 2, Score::kNegative);
  m.add_rating(2, 3, Score::kPositive);
  for (NodeId i = 0; i < reps.size(); ++i)
    m.set_global_reputation(i, reps[i], 0.05);
  return m;
}

TEST(RatingMatrixTest, BuildCopiesWindowAggregates) {
  const RatingMatrix m = populated_matrix({0.0, 0.5, 0.02, 0.1});

  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.cell(1, 0).total, 2u);
  EXPECT_EQ(m.cell(1, 0).positive, 2u);
  EXPECT_EQ(m.cell(1, 2).negative, 1u);
  EXPECT_EQ(m.cell(2, 3).positive, 1u);
  EXPECT_EQ(m.cell(0, 1).total, 0u);
  EXPECT_EQ(m.totals(1).total, 3u);
  EXPECT_EQ(m.window_reputation(1), 1);  // 2 pos - 1 neg
}

TEST(RatingMatrixTest, HighReputedFlagFollowsThreshold) {
  const RatingMatrix m = populated_matrix({0.0, 0.5, 0.02, 0.1});

  EXPECT_FALSE(m.high_reputed(0));
  EXPECT_TRUE(m.high_reputed(1));
  EXPECT_FALSE(m.high_reputed(2));
  EXPECT_TRUE(m.high_reputed(3));
  EXPECT_EQ(m.high_reputed_count(), 2u);
  EXPECT_DOUBLE_EQ(m.global_reputation(1), 0.5);
}

TEST(RatingMatrixTest, ThresholdIsStrict) {
  RatingMatrix m(2);
  m.set_global_reputation(0, 0.05, 0.05);
  m.set_global_reputation(1, 0.050001, 0.05);
  EXPECT_FALSE(m.high_reputed(0));  // R > T_R, not >=
  EXPECT_TRUE(m.high_reputed(1));
}

TEST(RatingMatrixTest, SetGlobalReputationMaintainsHighCount) {
  RatingMatrix m(3);
  EXPECT_EQ(m.high_reputed_count(), 0u);
  m.set_global_reputation(0, 0.5, 0.05);
  EXPECT_EQ(m.high_reputed_count(), 1u);
  m.set_global_reputation(0, 0.6, 0.05);  // still high: count unchanged
  EXPECT_EQ(m.high_reputed_count(), 1u);
  m.set_global_reputation(0, 0.01, 0.05);
  EXPECT_EQ(m.high_reputed_count(), 0u);
}

TEST(RatingMatrixTest, AddRatingUpdatesCellAndTotals) {
  RatingMatrix m(3);
  m.add_rating(1, 0, Score::kPositive);
  m.add_rating(1, 0, Score::kNegative);
  m.add_rating(1, 2, Score::kPositive);
  EXPECT_EQ(m.cell(1, 0).total, 2u);
  EXPECT_EQ(m.totals(1).total, 3u);
  EXPECT_EQ(m.window_reputation(1), 1);
}

TEST(RatingMatrixTest, CellVisitorMatchesCells) {
  RatingMatrix m(3);
  m.add_rating(1, 2, Score::kPositive);
  // Under the default full-row rule the visitor scans all n columns.
  std::size_t visited = 0;
  m.for_each_cell(1, [&](NodeId k, const PairStats& stats) {
    ++visited;
    EXPECT_EQ(stats, m.cell(1, k));
  });
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(m.cell(1, 2).positive, 1u);
  EXPECT_EQ(m.cell(1, 0).total, 0u);
  EXPECT_GT(m.cell(1, 2).total, 0u);
  EXPECT_EQ(m.cell(1, 0).total, 0u);
}

TEST(RatingMatrixTest, SparseBackendStoresOnlyTouchedCells) {
  RatingMatrix m(4, ScanCost::kStored);
  EXPECT_EQ(m.scan_cost(), ScanCost::kStored);
  m.add_rating(1, 0, Score::kPositive);
  m.add_rating(1, 0, Score::kNegative);
  m.add_rating(1, 3, Score::kPositive);

  std::size_t visited = 0;
  m.for_each_cell(1, [&](NodeId, const PairStats&) { ++visited; });
  EXPECT_EQ(visited, 2u);  // only the two touched cells are scanned

  EXPECT_EQ(m.cell(1, 0).total, 2u);
  EXPECT_EQ(m.cell(1, 2).total, 0u);  // absent cell reads as empty
  EXPECT_EQ(m.cell(1, 2).total, 0u);
  EXPECT_EQ(m.totals(1).total, 3u);
  EXPECT_EQ(m.window_reputation(1), 1);

  // Ordered enumeration: ascending rater, non-empty only.
  std::vector<NodeId> raters;
  m.for_each_nonzero_cell(
      1, [&](NodeId k, const PairStats&) { raters.push_back(k); });
  EXPECT_EQ(raters, (std::vector<NodeId>{0, 3}));

  m.clear_window();
  EXPECT_EQ(m.totals(1).total, 0u);
  EXPECT_EQ(m.cell(1, 0).total, 0u);
  visited = 0;
  m.for_each_cell(1, [&](NodeId, const PairStats&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

// The scan-cost rule is not a storage layout: a full-row matrix stores
// exactly what a stored-cell one does, a small fraction of what all n
// cells of every row would take (the analytic dense_footprint_bytes).
TEST(RatingMatrixTest, SparseFootprintBeatsDenseOracle) {
  constexpr std::size_t kNodes = 512;
  RatingMatrix stored(kNodes, ScanCost::kStored);
  RatingMatrix full(kNodes, ScanCost::kFullRow);
  for (NodeId i = 0; i + 1 < kNodes; i += 2) {
    stored.add_rating(i, i + 1, Score::kPositive);
    full.add_rating(i, i + 1, Score::kPositive);
  }
  EXPECT_EQ(full.approx_memory_bytes(), stored.approx_memory_bytes());
  EXPECT_LT(stored.approx_memory_bytes(),
            RatingMatrix::dense_footprint_bytes(kNodes) / 10);
  // The analytic figure: one 48-byte row header and slot per node plus
  // n PairStats per row.
  EXPECT_EQ(RatingMatrix::dense_footprint_bytes(kNodes),
            sizeof(RatingMatrix) + kNodes * (sizeof(void*) + 48) +
                kNodes * kNodes * sizeof(PairStats));
}

// Row lifecycle. A row is allocated on its first write and freed once it
// holds no cell and its host meta is at the default, under either
// scan-cost rule. An unwritten row reads as empty, and a full-row scan of
// it visits n empty cells.
class RatingMatrixRowLifecycleTest
    : public ::testing::TestWithParam<ScanCost> {
 protected:
  static constexpr std::size_t kNodes = 16;
  static constexpr double kHighRep = 0.05;

  RatingMatrixRowLifecycleTest() { m_.set_frequency_threshold(2); }

  /// Every accessor reads row `i` as a row no rating or reputation ever
  /// reached.
  void expect_untouched(NodeId i) const {
    EXPECT_FALSE(m_.high_reputed(i));
    EXPECT_EQ(m_.global_reputation(i), 0.0);
    EXPECT_EQ(m_.totals(i), PairStats{});
    EXPECT_EQ(m_.frequent_totals(i), PairStats{});
    EXPECT_EQ(m_.window_reputation(i), 0);
    for (NodeId j = 0; j < kNodes; ++j) {
      EXPECT_EQ(m_.cell(i, j), PairStats{}) << "cell (" << i << ", " << j << ")";
      EXPECT_EQ(m_.cell(i, j).total, 0u);
    }
    const std::size_t stored = GetParam() == ScanCost::kFullRow ? kNodes : 0;
    EXPECT_EQ(m_.stored_cells(i), stored);
    std::size_t visited = 0;
    m_.for_each_cell(i, [&](NodeId, const PairStats& stats) {
      EXPECT_EQ(stats, PairStats{});
      ++visited;
    });
    EXPECT_EQ(visited, stored);
    m_.for_each_nonzero_cell(i, [&](NodeId k, const PairStats&) {
      ADD_FAILURE() << "row " << i << " visited rater " << k;
    });
  }

  /// Rates row `i` from three raters, two of them frequent.
  void write_row(NodeId i) {
    for (NodeId k = 1; k <= 3; ++k) {
      const auto rater = static_cast<NodeId>((i + k) % kNodes);
      for (NodeId n = 0; n < k; ++n) m_.add_rating(i, rater, Score::kPositive);
    }
  }

  RatingMatrix m_{kNodes, GetParam()};
};

TEST_P(RatingMatrixRowLifecycleTest, UnwrittenRowsReadAsEmpty) {
  const std::size_t empty_bytes = m_.approx_memory_bytes();
  write_row(3);
  std::size_t cells = 0;
  m_.for_each_nonzero_cell_in_rows(0, kNodes,
                                   [&](NodeId i, NodeId, const PairStats&) {
                                     EXPECT_EQ(i, 3u);
                                     ++cells;
                                   });
  EXPECT_EQ(cells, 3u);
  for (NodeId i = 0; i < kNodes; ++i) {
    if (i != 3) expect_untouched(i);
  }
  EXPECT_GT(m_.approx_memory_bytes(), empty_bytes);

  // A zero reputation below the threshold is the default: no row appears.
  const std::size_t bytes = m_.approx_memory_bytes();
  m_.set_global_reputation(5, 0.0, kHighRep);
  m_.set_global_reputation(6, 0.0, 0.0);
  EXPECT_EQ(m_.approx_memory_bytes(), bytes);
  expect_untouched(5);
  expect_untouched(6);
  EXPECT_EQ(m_.high_reputed_count(), 0u);

  // Under a negative threshold a zero reputation is high: that row exists.
  m_.set_global_reputation(7, 0.0, -1.0);
  EXPECT_TRUE(m_.high_reputed(7));
  EXPECT_EQ(m_.high_reputed_count(), 1u);
}

TEST_P(RatingMatrixRowLifecycleTest, TakeRowAndClearWindowRestoreEmptyFootprint) {
  const std::size_t empty_bytes = m_.approx_memory_bytes();
  write_row(3);
  EXPECT_EQ(m_.take_row(3).size(), 3u);
  expect_untouched(3);
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);

  write_row(3);
  write_row(9);
  m_.restore_cell(12, 0, m_.cell(3, 4));
  m_.clear_window();
  for (NodeId i = 0; i < kNodes; ++i) expect_untouched(i);
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);

  // A reputation that falls back to the default frees its empty row too.
  m_.set_global_reputation(4, 2.0, kHighRep);
  m_.set_global_reputation(4, 0.0, kHighRep);
  expect_untouched(4);
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);
}

TEST_P(RatingMatrixRowLifecycleTest, HostMetaSurvivesTakeRowAndClearWindow) {
  m_.set_global_reputation(3, 2.0, kHighRep);
  m_.set_global_reputation(8, -0.0, kHighRep);
  write_row(3);
  write_row(8);
  EXPECT_EQ(m_.take_row(3).size(), 3u);
  EXPECT_TRUE(m_.high_reputed(3));
  EXPECT_EQ(m_.global_reputation(3), 2.0);
  EXPECT_EQ(m_.high_reputed_count(), 1u);
  EXPECT_EQ(m_.totals(3), PairStats{});
  EXPECT_EQ(m_.stored_cells(3),
            GetParam() == ScanCost::kFullRow ? kNodes : 0u);

  write_row(3);
  m_.clear_window();
  EXPECT_TRUE(m_.high_reputed(3));
  EXPECT_EQ(m_.global_reputation(3), 2.0);
  EXPECT_EQ(m_.high_reputed_count(), 1u);
  EXPECT_EQ(m_.frequent_totals(3), PairStats{});
  // A negative zero reads back bit for bit.
  EXPECT_TRUE(std::signbit(m_.global_reputation(8)));
  EXPECT_EQ(m_.totals(8), PairStats{});
}

INSTANTIATE_TEST_SUITE_P(Backends, RatingMatrixRowLifecycleTest,
                         ::testing::Values(ScanCost::kStored,
                                           ScanCost::kFullRow),
                         [](const auto& info) {
                           return testref::arm_name(info.param);
                         });

// With no ratings, a matrix costs its row slots and little else, under
// either scan-cost rule.
TEST(RatingMatrixTest, EmptySparse10kMatrixUnder100KB) {
  for (const ScanCost scan : {ScanCost::kStored, ScanCost::kFullRow}) {
    const RatingMatrix m(10'000, scan);
    EXPECT_LE(m.approx_memory_bytes(), 100'000u);
  }
}

// A hot row: 100k distinct raters arriving in shuffled order, the
// worst case for a sorted row layout (every insert lands mid-row). Raters
// are the even ids, so every odd id is an absent cell between two stored
// ones.
class HotSparseRowTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kRaters = 100'000;
  static constexpr NodeId kRatee = 0;

  static Score score_of(NodeId rater) {
    switch (rater % 3) {
      case 0: return Score::kPositive;
      case 1: return Score::kNegative;
      default: return Score::kNeutral;
    }
  }

  /// The even rater ids 2, 4, ..., 2 * kRaters in a seeded shuffle.
  static std::vector<NodeId> shuffled_raters(std::uint64_t seed) {
    std::vector<NodeId> raters(kRaters);
    for (std::size_t k = 0; k < kRaters; ++k)
      raters[k] = static_cast<NodeId>(2 * (k + 1));
    util::Rng rng(seed);
    for (std::size_t k = kRaters - 1; k > 0; --k)
      std::swap(raters[k], raters[rng.next_below(k + 1)]);
    return raters;
  }

  /// Rates kRatee once from every rater, then once more from every
  /// seventh (repeat ratings on existing cells); returns the seconds the
  /// first, cell-creating pass took.
  double fill(std::uint64_t seed) {
    const std::vector<NodeId> raters = shuffled_raters(seed);
    const auto start = std::chrono::steady_clock::now();
    for (NodeId rater : raters) m_.add_rating(kRatee, rater, score_of(rater));
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    for (NodeId rater : raters) {
      if (rater % 7 == 0) m_.add_rating(kRatee, rater, Score::kPositive);
    }
    return took.count();
  }

  static PairStats expected(NodeId rater) {
    PairStats stats;
    stats.add(score_of(rater));
    if (rater % 7 == 0) stats.add(Score::kPositive);
    return stats;
  }

  void expect_full_row() const {
    PairStats totals;
    for (NodeId k = 0; k <= 2 * kRaters + 1; ++k) {
      if (k % 2 == 1 || k == 0) {
        ASSERT_EQ(m_.cell(kRatee, k), PairStats{}) << "absent rater " << k;
        ASSERT_EQ(m_.cell(kRatee, k).total, 0u);
      } else {
        ASSERT_EQ(m_.cell(kRatee, k), expected(k)) << "rater " << k;
        totals += expected(k);
      }
    }
    EXPECT_EQ(m_.totals(kRatee), totals);

    std::vector<NodeId> order;
    m_.for_each_nonzero_cell(kRatee, [&](NodeId k, const PairStats& stats) {
      EXPECT_EQ(stats, expected(k));
      order.push_back(k);
    });
    ASSERT_EQ(order.size(), kRaters);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end());
    std::size_t visited = 0;
    NodeId last = 0;
    m_.for_each_cell(kRatee, [&](NodeId k, const PairStats&) {
      EXPECT_GT(k, last);
      last = k;
      ++visited;
    });
    EXPECT_EQ(visited, kRaters);
  }

  void expect_empty_row() const {
    EXPECT_EQ(m_.totals(kRatee), PairStats{});
    EXPECT_EQ(m_.cell(kRatee, 2), PairStats{});
    std::size_t visited = 0;
    m_.for_each_cell(kRatee, [&](NodeId, const PairStats&) { ++visited; });
    EXPECT_EQ(visited, 0u);
  }

  RatingMatrix m_{2 * kRaters + 2, ScanCost::kStored};
};

TEST_F(HotSparseRowTest, ShuffledInsertsStayOrderedAndFast) {
  const std::size_t empty_bytes = m_.approx_memory_bytes();
  // A sorted-vector row with plain mid-row inserts takes ~1.7 s here; the
  // sqrt-tail layout takes a few hundredths of a second.
  EXPECT_LT(fill(1), 1.0);
  expect_full_row();
  // A stored cell is the rater plus its packed counters: 8 bytes.
  EXPECT_GE(m_.approx_memory_bytes(),
            empty_bytes + kRaters * (sizeof(NodeId) + sizeof(std::uint32_t)));
}

TEST_F(HotSparseRowTest, TakeRowAndClearWindowFreeThenRefill) {
  const std::size_t empty_bytes = m_.approx_memory_bytes();
  fill(2);
  const auto taken = m_.take_row(kRatee);
  ASSERT_EQ(taken.size(), kRaters);
  for (std::size_t k = 0; k < kRaters; ++k) {
    ASSERT_EQ(taken[k].first, static_cast<NodeId>(2 * (k + 1)));
    ASSERT_EQ(taken[k].second, expected(taken[k].first));
  }
  expect_empty_row();
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);  // storage freed

  fill(3);
  expect_full_row();
  m_.clear_window();
  expect_empty_row();
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);

  fill(4);
  expect_full_row();
}

// A full row grows its block by ~1.25x, so a row grown by inserts
// keeps at most max(1, size / 4) unused cells, and a row whose final count
// is known (a restore_cell replay after reserve_cells, a take_row handoff)
// is sized exactly. Growth moves the block: checking every cell
// and aggregate against a per-row reference at each growth step catches
// a row reference held across the move. Threshold 1 makes every new cell
// join the frequent aggregate in the same add_rating that grows the row.
TEST(RatingMatrixTest, SparseRowSlackIsBounded) {
  constexpr std::size_t kNodes = 20'001;
  const std::vector<std::size_t> row_sizes{1,  2,  3,   4,   5,    8,     9,
                                           63, 64, 65,  100, 1000, 20'000};
  RatingMatrix m(kNodes, ScanCost::kStored);
  m.set_frequency_threshold(1);
  std::vector<std::vector<PairStats>> oracle(row_sizes.size());
  std::vector<PairStats> totals(row_sizes.size());

  const auto expect_row_matches = [&](NodeId ratee) {
    std::vector<std::pair<NodeId, PairStats>> cells;
    for (NodeId k = 0; k < kNodes; ++k) {
      ASSERT_EQ(m.cell(ratee, k), oracle[ratee][k])
          << "cell (" << ratee << ", " << k << ")";
      if (oracle[ratee][k].total > 0) cells.emplace_back(k, oracle[ratee][k]);
    }
    EXPECT_EQ(m.totals(ratee), totals[ratee]) << "row " << ratee;
    EXPECT_EQ(m.frequent_totals(ratee), totals[ratee]) << "row " << ratee;
    EXPECT_EQ(m.stored_cells(ratee), cells.size());
    std::vector<std::pair<NodeId, PairStats>> visited;
    m.for_each_nonzero_cell(ratee, [&](NodeId k, const PairStats& stats) {
      visited.emplace_back(k, stats);
    });
    EXPECT_EQ(visited, cells) << "row " << ratee;
  };

  util::Rng rng(21);
  for (NodeId ratee = 0; ratee < row_sizes.size(); ++ratee) {
    std::vector<NodeId> raters;
    for (NodeId k = 0; k < kNodes; ++k)
      if (k != ratee) raters.push_back(k);
    for (std::size_t k = raters.size() - 1; k > 0; --k)
      std::swap(raters[k], raters[rng.next_below(k + 1)]);
    raters.resize(row_sizes[ratee]);

    oracle[ratee].assign(kNodes, PairStats{});
    std::size_t capacity = 0;
    for (const NodeId rater : raters) {
      const Score score = rater % 2 == 0 ? Score::kPositive : Score::kNegative;
      m.add_rating(ratee, rater, score);
      oracle[ratee][rater].add(score);
      totals[ratee].add(score);
      const std::size_t size = m.stored_cells(ratee);
      ASSERT_GE(m.cell_capacity(ratee), size);
      ASSERT_LE(m.cell_capacity(ratee),
                size + std::max<std::size_t>(1, size / 4))
          << "row " << ratee << " at " << size << " cells";
      if (m.cell_capacity(ratee) != capacity) {  // grown: the block moved
        capacity = m.cell_capacity(ratee);
        expect_row_matches(ratee);
      }
    }
  }
  for (NodeId ratee = 0; ratee < row_sizes.size(); ++ratee)
    expect_row_matches(ratee);

  // Rows whose final count is known have no slack.
  RatingMatrix replayed(kNodes, ScanCost::kStored);
  RatingMatrix handed_off(kNodes, ScanCost::kStored);
  replayed.set_frequency_threshold(1);
  handed_off.set_frequency_threshold(1);
  for (NodeId ratee = 0; ratee < row_sizes.size(); ++ratee) {
    replayed.reserve_cells(ratee, row_sizes[ratee]);
    m.for_each_nonzero_cell(ratee, [&](NodeId k, const PairStats& stats) {
      replayed.restore_cell(ratee, k, stats);
    });
    EXPECT_EQ(replayed.cell_capacity(ratee), row_sizes[ratee]) << "replay";

    const auto taken = m.take_row(ratee);
    EXPECT_EQ(m.cell_capacity(ratee), 0u);  // the sender's block is freed
    handed_off.reserve_cells(ratee, taken.size());
    for (const auto& [k, stats] : taken) handed_off.restore_cell(ratee, k, stats);
    EXPECT_EQ(handed_off.cell_capacity(ratee), row_sizes[ratee]) << "handoff";

    for (NodeId k = 0; k < kNodes; ++k) {
      ASSERT_EQ(replayed.cell(ratee, k), oracle[ratee][k]);
      ASSERT_EQ(handed_off.cell(ratee, k), oracle[ratee][k]);
    }
    EXPECT_EQ(replayed.totals(ratee), totals[ratee]);
    EXPECT_EQ(handed_off.totals(ratee), totals[ratee]);
    EXPECT_EQ(replayed.frequent_totals(ratee), totals[ratee]);
    EXPECT_EQ(handed_off.frequent_totals(ratee), totals[ratee]);
  }
}

// Cell reads resume from a per-thread finger left by the previous read.
// Interleave reads in every order (ascending sweeps, descending, random,
// hopping between rows and between matrices) with inserts, take_row and
// clear_window, and check every read against a reference map.
TEST(RatingMatrixTest, SparseReadsMatchReferenceUnderAnyProbeOrder) {
  constexpr std::size_t kNodes = 300;
  util::Rng rng(5);
  std::vector<RatingMatrix> matrices;
  std::vector<std::vector<std::vector<PairStats>>> expected;
  for (int k = 0; k < 2; ++k) {
    matrices.emplace_back(kNodes, ScanCost::kStored);
    expected.emplace_back(kNodes, std::vector<PairStats>(kNodes));
  }
  const auto check = [&](std::size_t m, NodeId i, NodeId j) {
    ASSERT_EQ(matrices[m].cell(i, j), expected[m][i][j])
        << "matrix " << m << " cell (" << i << ", " << j << ")";
  };
  for (int round = 0; round < 300; ++round) {
    const std::size_t m = rng.next_below(2);
    const auto i = static_cast<NodeId>(rng.next_below(8));  // few hot rows
    switch (rng.next_below(8)) {
      case 0:  // ascending sweep, as the pair sweeps read a row
        for (NodeId j = 0; j < kNodes; ++j) check(m, i, j);
        break;
      case 1:  // descending sweep
        for (NodeId j = kNodes; j-- > 0;) check(m, i, j);
        break;
      case 2:  // random probes hopping between rows and matrices
        for (int k = 0; k < 200; ++k) {
          check(rng.next_below(2), static_cast<NodeId>(rng.next_below(8)),
                static_cast<NodeId>(rng.next_below(kNodes)));
        }
        break;
      case 3: {  // empty a row
        const auto taken = matrices[m].take_row(i);
        std::size_t stored = 0;
        for (const PairStats& stats : expected[m][i])
          stored += stats.total > 0 ? 1 : 0;
        EXPECT_EQ(taken.size(), stored);
        expected[m][i].assign(kNodes, PairStats{});
        break;
      }
      case 4:
        if (rng.next_below(4) == 0) {
          matrices[m].clear_window();
          for (auto& row : expected[m]) row.assign(kNodes, PairStats{});
        }
        break;
      default:  // inserts, interleaved with ascending reads of the row
        for (int k = 0; k < 40; ++k) {
          const auto j = static_cast<NodeId>(rng.next_below(kNodes));
          if (j != i) {
            matrices[m].add_rating(i, j, Score::kPositive);
            expected[m][i][j].add(Score::kPositive);
          }
          check(m, i, static_cast<NodeId>(k * 7));
        }
        break;
    }
  }
}

TEST(RatingMatrixTest, BuildFlagsNothingWhenAllLow) {
  const RatingMatrix m = populated_matrix({0.0, 0.0, 0.0, 0.0});
  EXPECT_EQ(m.high_reputed_count(), 0u);
}

}  // namespace
}  // namespace p2prep::rating
