// Packed cells and their escape store.
//
// A cell keeps its N+, N- and neutral counts packed into 11, 11 and
// 10 bits of one word beside the rater. A cell whose count outgrows its
// field moves to a per-matrix escape store. These tests drive cells across
// each field's limit, through add_rating and restore_cell, and check that
// every reader still sees the exact counts; that take_row and clear_window
// free escaped entries; and that on streams with heavy pairs every matrix
// matches the reference model (tests/rating/reference_matrix.h) cell for
// cell and checkpoint byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rating/matrix.h"
#include "service/wal.h"
#include "tests/rating/reference_matrix.h"
#include "util/rng.h"

namespace p2prep::rating {
namespace {

/// The first count each packed field cannot hold.
constexpr std::uint32_t kSignOverflow = 1u << 11;
constexpr std::uint32_t kNeutralOverflow = 1u << 10;

using Row = std::map<NodeId, PairStats>;
using Cells = std::vector<std::pair<NodeId, PairStats>>;

PairStats stats(std::uint32_t total, std::uint32_t positive,
                std::uint32_t negative) {
  PairStats s;
  s.total = total;
  s.positive = positive;
  s.negative = negative;
  return s;
}

/// Row `ratee` of `m` reads exactly as `want` (its non-empty cells)
/// through every accessor.
void expect_row_exact(const RatingMatrix& m, NodeId ratee, const Row& want) {
  PairStats totals;
  PairStats frequent;
  for (const auto& [rater, s] : want) {
    EXPECT_EQ(m.cell(ratee, rater), s) << "cell (" << ratee << ", " << rater
                                       << ")";
    EXPECT_GT(m.cell(ratee, rater).total, 0u);
    totals += s;
    if (m.frequency_threshold() > 0 && s.total >= m.frequency_threshold())
      frequent += s;
  }
  EXPECT_EQ(m.totals(ratee), totals) << "row " << ratee;
  EXPECT_EQ(m.frequent_totals(ratee), frequent) << "row " << ratee;

  const Cells expected(want.begin(), want.end());
  Cells nonzero;
  m.for_each_nonzero_cell(ratee, [&](NodeId k, const PairStats& s) {
    nonzero.emplace_back(k, s);
  });
  EXPECT_EQ(nonzero, expected) << "row " << ratee;
  Cells visited;
  m.for_each_cell(ratee, [&](NodeId k, const PairStats& s) {
    if (s.total > 0) visited.emplace_back(k, s);
  });
  EXPECT_EQ(visited, expected) << "row " << ratee;
  Cells in_rows;
  m.for_each_nonzero_cell_in_rows(
      ratee, ratee + 1, [&](NodeId i, NodeId k, const PairStats& s) {
        EXPECT_EQ(i, ratee);
        in_rows.emplace_back(k, s);
      });
  EXPECT_EQ(in_rows, expected) << "row " << ratee;
}

class RatingMatrixPackedCellTest
    : public ::testing::TestWithParam<std::tuple<ScanCost, Score>> {
 protected:
  static constexpr std::size_t kNodes = 8;
  static constexpr NodeId kRatee = 1;
  static constexpr NodeId kHeavy = 4;

  RatingMatrixPackedCellTest() : m_(kNodes, std::get<0>(GetParam())) {
    m_.set_frequency_threshold(3);
  }

  [[nodiscard]] Score score() const { return std::get<1>(GetParam()); }
  /// The count of score() ratings that first overflows its field.
  [[nodiscard]] std::uint32_t overflow() const {
    return score() == Score::kNeutral ? kNeutralOverflow : kSignOverflow;
  }

  void add(NodeId ratee, NodeId rater, Score s) {
    m_.add_rating(ratee, rater, s);
    want_[ratee][rater].add(s);
  }
  void expect_exact() {
    for (const auto& [ratee, row] : want_) expect_row_exact(m_, ratee, row);
  }

  RatingMatrix m_;
  std::map<NodeId, Row> want_;
};

// A cell taken one rating at a time across its field's limit reads back
// exact at every step, as do its packed neighbours; further ratings of
// every sign keep it exact once escaped.
TEST_P(RatingMatrixPackedCellTest, AddRatingCrossesFieldLimitExactly) {
  const std::size_t empty_bytes = m_.approx_memory_bytes();
  // Packed neighbours on both sides of the heavy cell, and the same rater
  // in another row.
  add(kRatee, 0, Score::kPositive);
  add(kRatee, 7, Score::kNegative);
  add(kRatee, 7, Score::kNeutral);
  add(2, kHeavy, Score::kPositive);
  for (std::uint32_t k = 0; k + 2 < overflow(); ++k)
    add(kRatee, kHeavy, score());
  expect_exact();
  const std::size_t packed_bytes = m_.approx_memory_bytes();

  for (int step = 0; step < 4; ++step) {  // overflow() - 2 .. overflow() + 1
    add(kRatee, kHeavy, score());
    expect_exact();
  }
  EXPECT_EQ(m_.cell(kRatee, kHeavy).total, overflow() + 2);
  EXPECT_GT(m_.approx_memory_bytes(), packed_bytes);  // the escape store

  for (const Score s : {Score::kPositive, Score::kNegative, Score::kNeutral})
    add(kRatee, kHeavy, s);
  add(kRatee, 3, Score::kPositive);  // a new packed cell beside it
  expect_exact();

  const Cells taken = m_.take_row(kRatee);
  EXPECT_EQ(taken, Cells(want_[kRatee].begin(), want_[kRatee].end()));
  want_.erase(kRatee);
  expect_row_exact(m_, kRatee, {});
  expect_exact();  // row 2's cell of the same rater is untouched

  m_.clear_window();
  want_.clear();
  expect_row_exact(m_, 2, {});
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);
}

// Escaped cells are keyed by (ratee, rater): escaping the same rater in
// two rows and taking one of them leaves the other exact, and the last
// take frees the store.
TEST_P(RatingMatrixPackedCellTest, TakeRowFreesOnlyItsEscapedCells) {
  const std::size_t empty_bytes = m_.approx_memory_bytes();
  for (std::uint32_t k = 0; k < overflow(); ++k) {
    add(kRatee, kHeavy, score());
    add(2, kHeavy, score());
  }
  add(2, 0, Score::kNegative);
  expect_exact();

  EXPECT_EQ(m_.take_row(2).size(), 2u);
  want_.erase(2);
  expect_exact();
  EXPECT_EQ(m_.take_row(kRatee).size(), 1u);
  want_.clear();
  expect_row_exact(m_, kRatee, {});
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);
}

// restore_cell installs over-limit stats verbatim — each field over its
// limit, an aggregate whose N is below N+ + N- (a hostile checkpoint), and
// the largest aggregate that still packs — and ratings added afterwards
// stay exact.
TEST_P(RatingMatrixPackedCellTest, RestoreCellKeepsOversizedStatsExact) {
  const std::size_t empty_bytes = m_.approx_memory_bytes();
  const std::uint32_t over = overflow();
  const PairStats heavy =
      score() == Score::kPositive   ? stats(over + 10, over, 5)
      : score() == Score::kNegative ? stats(over + 10, 5, over)
                                    : stats(over + 10, 4, 6);
  const PairStats largest_packed = stats(
      2 * (kSignOverflow - 1) + kNeutralOverflow - 1, kSignOverflow - 1,
      kSignOverflow - 1);
  const PairStats inconsistent = stats(1, 5, 0);

  m_.restore_cell(kRatee, kHeavy, heavy);
  want_[kRatee][kHeavy] = heavy;
  m_.restore_cell(kRatee, 2, largest_packed);
  want_[kRatee][2] = largest_packed;
  m_.restore_cell(kRatee, 6, inconsistent);
  want_[kRatee][6] = inconsistent;
  m_.restore_cell(3, kHeavy, heavy);
  want_[3][kHeavy] = heavy;
  m_.restore_cell(3, 0, PairStats{});  // empty: restores nothing
  expect_exact();

  add(kRatee, kHeavy, score());
  add(kRatee, 2, Score::kNeutral);  // overflows the neutral field
  add(kRatee, 5, score());
  expect_exact();

  m_.clear_window();
  want_.clear();
  expect_row_exact(m_, kRatee, {});
  expect_row_exact(m_, 3, {});
  EXPECT_EQ(m_.approx_memory_bytes(), empty_bytes);
}

// The largest packable aggregate packs: restoring it costs a cell, never
// an escape-store entry.
TEST(RatingMatrixTest, LargestPackableCellNeedsNoEscape) {
  RatingMatrix small(4, ScanCost::kStored);
  RatingMatrix largest(4, ScanCost::kStored);
  small.restore_cell(1, 2, stats(1, 1, 0));
  largest.restore_cell(
      1, 2,
      stats(2 * (kSignOverflow - 1) + kNeutralOverflow - 1,
            kSignOverflow - 1, kSignOverflow - 1));
  EXPECT_EQ(largest.approx_memory_bytes(), small.approx_memory_bytes());
  RatingMatrix escaped(4, ScanCost::kStored);
  escaped.restore_cell(1, 2, stats(kSignOverflow, kSignOverflow, 0));
  EXPECT_GT(escaped.approx_memory_bytes(), small.approx_memory_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndSigns, RatingMatrixPackedCellTest,
    ::testing::Combine(::testing::Values(ScanCost::kStored, ScanCost::kFullRow),
                       ::testing::Values(Score::kPositive, Score::kNegative,
                                         Score::kNeutral)),
    [](const auto& info) {
      const Score s = std::get<1>(info.param);
      return testref::arm_name(std::get<0>(info.param)) + "_" +
             (s == Score::kPositive   ? "positive"
              : s == Score::kNegative ? "negative"
                                      : "neutral");
    });

// --- Reference-model differential on heavy pairs ---------------------------

constexpr std::size_t kDiffNodes = 40;

/// A seeded stream: organic ratings plus three mutual heavy pairs of
/// 3,000-4,500 ratings per direction, shuffled together. Pair p is
/// dominated by one kind of rating (positive, negative, neutral), so every
/// seed overflows each packed field; the rest of its ratings split between
/// the other two kinds.
std::vector<Rating> heavy_pair_stream(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Rating> out;
  for (int k = 0; k < 1500; ++k) {
    const auto rater = static_cast<NodeId>(rng.next_below(kDiffNodes));
    auto ratee = static_cast<NodeId>(rng.next_below(kDiffNodes));
    if (ratee == rater) ratee = static_cast<NodeId>((ratee + 1) % kDiffNodes);
    out.push_back({rater, ratee,
                   rng.chance(0.8) ? Score::kPositive : Score::kNegative, 0});
  }
  for (int p = 0; p < 3; ++p) {
    const auto a = static_cast<NodeId>(rng.next_below(kDiffNodes));
    const auto b = static_cast<NodeId>(
        (a + 1 + rng.next_below(kDiffNodes - 1)) % kDiffNodes);
    const Score kinds[3] = {Score::kPositive, Score::kNegative,
                            Score::kNeutral};
    const double dominant = rng.uniform(p == 2 ? 0.45 : 0.75, 0.9);
    const std::size_t n = 2 * (3000 + rng.next_below(1501));
    for (std::size_t k = 0; k < n; ++k) {
      const double u = rng.next_double();
      const Score s = u < dominant ? kinds[p]
                      : u < (1.0 + dominant) / 2 ? kinds[(p + 1) % 3]
                                                 : kinds[(p + 2) % 3];
      out.push_back(k % 2 == 0 ? Rating{a, b, s, 0} : Rating{b, a, s, 0});
    }
  }
  for (std::size_t k = out.size(); k > 1; --k)
    std::swap(out[k - 1], out[rng.next_below(k)]);
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k].time = static_cast<Tick>(k);
  return out;
}

/// Cells as a checkpoint image, ascending by (ratee, rater) as
/// ServiceShard::make_checkpoint enumerates them; `row(i)` gives row i's
/// non-empty cells.
template <typename RowOf>
std::string checkpoint_bytes(std::size_t n, RowOf row) {
  service::ShardCheckpoint ckpt;
  for (NodeId i = 0; i < n; ++i)
    for (const auto& [k, s] : row(i)) ckpt.cells.push_back({i, k, s});
  return service::encode_checkpoint(ckpt);
}
std::string checkpoint_bytes(const RatingMatrix& m) {
  return checkpoint_bytes(m.size(), [&m](NodeId i) {
    Cells cells;
    m.for_each_nonzero_cell(
        i, [&](NodeId k, const PairStats& s) { cells.emplace_back(k, s); });
    return cells;
  });
}

/// `m` reads as the model through every accessor, and checkpoints to the
/// bytes the model's cells encode to.
void expect_same(const testref::ReferenceMatrix& ref, const RatingMatrix& m) {
  testref::expect_matches(m, ref);
  EXPECT_EQ(checkpoint_bytes(m), checkpoint_bytes(ref.size(), [&](NodeId i) {
              return ref.row(i);
            }));
}

class RatingMatrixHeavyPairDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// The stream's first half goes into a full-row and a stored-cell matrix
// and the model; the matrices are checkpointed and restored into a fresh
// matrix of each rule; the second half goes into all four, with one heavy
// row handed off through take_row and restore_cell midway. Every matrix
// must agree with the reference model throughout, checkpoint bytes
// included. (The test name predates the model, when a dense matrix was
// the oracle.)
TEST_P(RatingMatrixHeavyPairDifferentialTest, SparseMatchesDenseOracle) {
  const std::uint64_t seed = GetParam();
  const std::vector<Rating> stream = heavy_pair_stream(seed);
  const std::uint32_t tn = 1 + static_cast<std::uint32_t>(seed % 40);

  testref::ReferenceMatrix ref(kDiffNodes, tn);
  std::vector<RatingMatrix> m;
  m.emplace_back(kDiffNodes, ScanCost::kFullRow);
  m.emplace_back(kDiffNodes, ScanCost::kStored);
  const std::size_t empty_bytes = m[1].approx_memory_bytes();
  for (RatingMatrix& x : m) x.set_frequency_threshold(tn);
  const auto add = [&](const Rating& r) {
    for (RatingMatrix& x : m) x.add_rating(r.ratee, r.rater, r.score);
    ref.add_rating(r.ratee, r.rater, r.score);
  };
  const std::size_t half = stream.size() / 2;
  for (std::size_t k = 0; k < half; ++k) add(stream[k]);
  for (const RatingMatrix& x : m) expect_same(ref, x);

  const std::optional<service::ShardCheckpoint> ckpt =
      service::parse_checkpoint(checkpoint_bytes(m[1]));
  ASSERT_TRUE(ckpt.has_value());
  for (const ScanCost scan : {ScanCost::kFullRow, ScanCost::kStored}) {
    RatingMatrix& restored = m.emplace_back(kDiffNodes, scan);
    restored.set_frequency_threshold(tn);
    for (const service::CheckpointCell& c : ckpt->cells)
      restored.restore_cell(c.ratee, c.rater, c.stats);
  }
  for (const RatingMatrix& x : m) expect_same(ref, x);

  const NodeId heavy = stream.back().ratee;
  for (std::size_t k = half; k < stream.size(); ++k) {
    add(stream[k]);
    if (k == half + (stream.size() - half) / 2) {
      const Cells want = ref.take_row(heavy);
      for (const auto& [rater, s] : want) ref.restore_cell(heavy, rater, s);
      for (RatingMatrix& x : m) {
        const Cells cells = x.take_row(heavy);
        EXPECT_EQ(cells, want);
        for (const auto& [rater, s] : cells) x.restore_cell(heavy, rater, s);
      }
    }
  }
  for (const RatingMatrix& x : m) expect_same(ref, x);

  m[1].clear_window();
  EXPECT_EQ(m[1].approx_memory_bytes(), empty_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RatingMatrixHeavyPairDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace p2prep::rating
