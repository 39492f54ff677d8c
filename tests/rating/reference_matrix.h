// A test-only reference model of RatingMatrix: the oracle the
// differential suites hold the matrix against.
//
// The model is an ordered map of non-empty (ratee, rater) cells plus each
// node's host meta. It shares no code with the matrix: no packed counts,
// no escape store, no row blocks, no incremental aggregates. Totals and
// frequent aggregates are recomputed from the model's own cells on every
// read, so a matrix whose bookkeeping drifts from its cells (a wrong
// threshold-crossing update, a wrong unpack shift) disagrees with it.
// expect_matches() compares every observable of a matrix — every cell of
// the n x n grid, the aggregates, the visitors under the matrix's
// scan-cost rule — against the model.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rating/matrix.h"

namespace p2prep::testref {

using rating::NodeId;
using rating::PairStats;

/// The label of a scan-cost arm in parametrized test names: "dense" for
/// kFullRow, which charges a row scan what a dense n-cell row costs, and
/// "sparse" for kStored, which charges the stored cells.
inline std::string arm_name(rating::ScanCost scan) {
  return scan == rating::ScanCost::kFullRow ? "dense" : "sparse";
}

class ReferenceMatrix {
 public:
  using Cells = std::vector<std::pair<NodeId, PairStats>>;

  ReferenceMatrix(std::size_t num_nodes, std::uint32_t frequency_threshold)
      : frequency_threshold_(frequency_threshold),
        reps_(num_nodes, 0.0),
        high_(num_nodes, false) {}

  /// The model of a matrix whose window holds `ratings`, with
  /// `global_reps[i]` > `high_rep_threshold` flagging node i live.
  static ReferenceMatrix of(std::span<const rating::Rating> ratings,
                            std::span<const double> global_reps,
                            double high_rep_threshold,
                            std::uint32_t frequency_threshold) {
    ReferenceMatrix m(global_reps.size(), frequency_threshold);
    for (const rating::Rating& r : ratings)
      m.add_rating(r.ratee, r.rater, r.score);
    for (NodeId i = 0; i < global_reps.size(); ++i)
      m.set_global_reputation(i, global_reps[i], high_rep_threshold);
    return m;
  }

  [[nodiscard]] std::size_t size() const { return reps_.size(); }
  [[nodiscard]] std::uint32_t frequency_threshold() const {
    return frequency_threshold_;
  }

  void add_rating(NodeId ratee, NodeId rater, rating::Score score) {
    cells_[{ratee, rater}].add(score);
  }
  /// Installs `stats` verbatim; an empty `stats` installs nothing.
  void restore_cell(NodeId ratee, NodeId rater, const PairStats& stats) {
    if (stats.total > 0) cells_[{ratee, rater}] = stats;
  }
  /// Removes row `ratee`'s cells and returns them, ascending by rater.
  Cells take_row(NodeId ratee) {
    Cells taken = row(ratee);
    cells_.erase(cells_.lower_bound({ratee, 0}),
                 cells_.lower_bound({ratee + 1, 0}));
    return taken;
  }
  void clear_window() { cells_.clear(); }
  void set_global_reputation(NodeId i, double rep, double high_rep_threshold) {
    reps_[i] = rep;
    high_[i] = rep > high_rep_threshold;
  }

  [[nodiscard]] PairStats cell(NodeId ratee, NodeId rater) const {
    const auto it = cells_.find({ratee, rater});
    return it != cells_.end() ? it->second : PairStats{};
  }
  /// Row `ratee`'s non-empty cells, ascending by rater.
  [[nodiscard]] Cells row(NodeId ratee) const {
    Cells out;
    for (auto it = cells_.lower_bound({ratee, 0});
         it != cells_.end() && it->first.first == ratee; ++it)
      out.emplace_back(it->first.second, it->second);
    return out;
  }
  [[nodiscard]] PairStats totals(NodeId ratee) const {
    PairStats sum;
    for (const auto& [rater, stats] : row(ratee)) sum += stats;
    return sum;
  }
  [[nodiscard]] PairStats frequent_totals(NodeId ratee) const {
    PairStats sum;
    if (frequency_threshold_ == 0) return sum;
    for (const auto& [rater, stats] : row(ratee))
      if (stats.total >= frequency_threshold_) sum += stats;
    return sum;
  }
  [[nodiscard]] double global_reputation(NodeId i) const { return reps_[i]; }
  [[nodiscard]] bool high_reputed(NodeId i) const { return high_[i]; }
  [[nodiscard]] std::size_t high_reputed_count() const {
    std::size_t count = 0;
    for (const bool high : high_) count += high ? 1 : 0;
    return count;
  }

 private:
  std::uint32_t frequency_threshold_;
  std::map<std::pair<NodeId, NodeId>, PairStats> cells_;
  std::vector<double> reps_;
  std::vector<bool> high_;
};

/// Every observable of `m` equals the model's: host meta, aggregates,
/// every cell of the n x n grid, the non-empty enumeration, and the row
/// scan and stored-cell count under `m`'s scan-cost rule.
inline void expect_matches(const rating::RatingMatrix& m,
                           const ReferenceMatrix& ref) {
  using Cells = ReferenceMatrix::Cells;
  ASSERT_EQ(m.size(), ref.size());
  EXPECT_EQ(m.frequency_threshold(), ref.frequency_threshold());
  EXPECT_EQ(m.high_reputed_count(), ref.high_reputed_count());
  const bool full_row = m.scan_cost() == rating::ScanCost::kFullRow;
  std::vector<std::tuple<NodeId, NodeId, PairStats>> all_cells;
  for (NodeId i = 0; i < m.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "row " << i);
    EXPECT_EQ(m.high_reputed(i), ref.high_reputed(i));
    EXPECT_EQ(m.global_reputation(i), ref.global_reputation(i));
    EXPECT_EQ(m.totals(i), ref.totals(i));
    EXPECT_EQ(m.frequent_totals(i), ref.frequent_totals(i));
    EXPECT_EQ(m.window_reputation(i), ref.totals(i).reputation_delta());
    const rating::RatingMatrix::RowView view = m.row_view(i);
    for (NodeId j = 0; j < m.size(); ++j) {
      ASSERT_EQ(view.cell(j), ref.cell(i, j)) << "cell (" << i << ", " << j
                                              << ")";
    }

    const Cells want = ref.row(i);
    for (const auto& [k, stats] : want) all_cells.emplace_back(i, k, stats);
    Cells nonzero;
    m.for_each_nonzero_cell(
        i, [&](NodeId k, const PairStats& s) { nonzero.emplace_back(k, s); });
    EXPECT_EQ(nonzero, want);

    Cells scanned;
    m.for_each_cell(
        i, [&](NodeId k, const PairStats& s) { scanned.emplace_back(k, s); });
    if (full_row) {
      ASSERT_EQ(scanned.size(), m.size());
      for (NodeId k = 0; k < m.size(); ++k) {
        EXPECT_EQ(scanned[k].first, k);
        EXPECT_EQ(scanned[k].second, ref.cell(i, k)) << "rater " << k;
      }
    } else {
      EXPECT_EQ(scanned, want);
    }
    EXPECT_EQ(m.stored_cells(i), full_row ? m.size() : want.size());
  }
  std::vector<std::tuple<NodeId, NodeId, PairStats>> in_rows;
  m.for_each_nonzero_cell_in_rows(
      0, static_cast<NodeId>(m.size()),
      [&](NodeId i, NodeId k, const PairStats& s) {
        in_rows.emplace_back(i, k, s);
      });
  EXPECT_EQ(in_rows, all_cells);
}

}  // namespace p2prep::testref
