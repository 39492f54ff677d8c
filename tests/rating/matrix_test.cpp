#include "rating/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace p2prep::rating {
namespace {

RatingStore populated_store() {
  RatingStore store(4);
  // Node 1 rated by 0 (2 pos), by 2 (1 neg); node 2 rated by 3 (1 pos).
  store.ingest({.rater = 0, .ratee = 1, .score = Score::kPositive, .time = 0});
  store.ingest({.rater = 0, .ratee = 1, .score = Score::kPositive, .time = 1});
  store.ingest({.rater = 2, .ratee = 1, .score = Score::kNegative, .time = 2});
  store.ingest({.rater = 3, .ratee = 2, .score = Score::kPositive, .time = 3});
  return store;
}

TEST(RatingMatrixTest, BuildCopiesWindowAggregates) {
  const RatingStore store = populated_store();
  const std::vector<double> reps{0.0, 0.5, 0.02, 0.1};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);

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
  const RatingStore store = populated_store();
  const std::vector<double> reps{0.0, 0.5, 0.02, 0.1};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);

  EXPECT_FALSE(m.high_reputed(0));
  EXPECT_TRUE(m.high_reputed(1));
  EXPECT_FALSE(m.high_reputed(2));
  EXPECT_TRUE(m.high_reputed(3));
  EXPECT_EQ(m.high_reputed_count(), 2u);
  EXPECT_DOUBLE_EQ(m.global_reputation(1), 0.5);
}

TEST(RatingMatrixTest, ThresholdIsStrict) {
  RatingStore store(2);
  const std::vector<double> reps{0.05, 0.050001};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);
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
  // The dense backend stores all n columns; the visitor exposes them all.
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
  RatingMatrix m(4, MatrixBackend::kSparse);
  EXPECT_EQ(m.backend(), MatrixBackend::kSparse);
  m.add_rating(1, 0, Score::kPositive);
  m.add_rating(1, 0, Score::kNegative);
  m.add_rating(1, 3, Score::kPositive);

  std::size_t visited = 0;
  m.for_each_cell(1, [&](NodeId, const PairStats&) { ++visited; });
  EXPECT_EQ(visited, 2u);  // only the two touched cells are stored

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

TEST(RatingMatrixTest, SparseFootprintBeatsDenseOracle) {
  constexpr std::size_t kNodes = 512;
  RatingMatrix sparse(kNodes, MatrixBackend::kSparse);
  RatingMatrix dense(kNodes, MatrixBackend::kDense);
  for (NodeId i = 0; i + 1 < kNodes; i += 2) {
    sparse.add_rating(i, i + 1, Score::kPositive);
    dense.add_rating(i, i + 1, Score::kPositive);
  }
  EXPECT_LT(sparse.approx_memory_bytes(), dense.approx_memory_bytes() / 10);
  // The analytic oracle is a floor of the measured dense footprint (the
  // measurement adds the pair-mark set's overhead on top).
  EXPECT_GE(dense.approx_memory_bytes(),
            RatingMatrix::dense_footprint_bytes(kNodes));
  EXPECT_LT(dense.approx_memory_bytes(),
            RatingMatrix::dense_footprint_bytes(kNodes) + 4096);
}

// Row lifecycle. A sparse row is allocated on its first write and freed
// once it holds no cell and its host meta is at the default; the dense
// oracle holds every row. Either way an unwritten row reads as empty.
class RatingMatrixRowLifecycleTest
    : public ::testing::TestWithParam<MatrixBackend> {
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
    const std::size_t stored =
        GetParam() == MatrixBackend::kDense ? kNodes : 0;
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
  if (GetParam() == MatrixBackend::kSparse)
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
            GetParam() == MatrixBackend::kDense ? kNodes : 0u);

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
                         ::testing::Values(MatrixBackend::kSparse,
                                           MatrixBackend::kDense),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// With no ratings, a sparse matrix costs its row slots and little else.
TEST(RatingMatrixTest, EmptySparse10kMatrixUnder100KB) {
  const RatingMatrix m(10'000, MatrixBackend::kSparse);
  EXPECT_LE(m.approx_memory_bytes(), 100'000u);
}

// A hot sparse row: 100k distinct raters arriving in shuffled order, the
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

  RatingMatrix m_{2 * kRaters + 2, MatrixBackend::kSparse};
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

// Sparse reads resume from a per-thread finger left by the previous read.
// Interleave reads in every order (ascending sweeps, descending, random,
// hopping between rows and between matrices) with inserts, take_row and
// clear_window, and check every read against a reference map.
TEST(RatingMatrixTest, SparseReadsMatchReferenceUnderAnyProbeOrder) {
  constexpr std::size_t kNodes = 300;
  util::Rng rng(5);
  std::vector<RatingMatrix> matrices;
  std::vector<std::vector<std::vector<PairStats>>> expected;
  for (int k = 0; k < 2; ++k) {
    matrices.emplace_back(kNodes, MatrixBackend::kSparse);
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
  RatingStore store(3);
  const std::vector<double> reps{0.0, 0.0, 0.0};
  const RatingMatrix m = RatingMatrix::build(store, reps, 0.05);
  EXPECT_EQ(m.high_reputed_count(), 0u);
}

}  // namespace
}  // namespace p2prep::rating
