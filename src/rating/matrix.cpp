#include "rating/matrix.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace p2prep::rating {

RatingMatrix::RatingMatrix(std::size_t num_nodes, MatrixBackend backend)
    : backend_(backend), meta_(num_nodes) {
  if (backend_ == MatrixBackend::kDense) {
    dense_ = util::Matrix<PairStats>(num_nodes, num_nodes);
  } else {
    sparse_.resize(num_nodes);
  }
}

RatingMatrix RatingMatrix::build(const RatingStore& store,
                                 std::span<const double> global_reps,
                                 double high_rep_threshold,
                                 std::uint32_t frequency_threshold,
                                 MatrixBackend backend) {
  const std::size_t n = store.num_nodes();
  assert(global_reps.size() == n);
  RatingMatrix m(n, backend);
  m.frequency_threshold_ = frequency_threshold;
  for (NodeId i = 0; i < n; ++i) {
    auto& meta = m.meta_[i];
    meta.global_rep = global_reps[i];
    meta.totals = store.window_totals(i);
    meta.high_reputed = global_reps[i] > high_rep_threshold;
    if (meta.high_reputed) ++m.high_count_;
    store.for_each_window_rater(
        i, [&m, i, frequency_threshold, &meta](NodeId rater,
                                               const PairStats& stats) {
          if (m.backend_ == MatrixBackend::kDense) {
            m.dense_(i, rater) = stats;
          } else {
            m.sparse_[i].cells.emplace_back(rater, stats);
          }
          if (frequency_threshold > 0 && stats.total >= frequency_threshold)
            meta.frequent_totals += stats;
        });
    if (m.backend_ == MatrixBackend::kSparse) {
      // The store enumerates raters unordered: sort once into the main run.
      SparseRow& row = m.sparse_[i];
      std::sort(row.cells.begin(), row.cells.end(), RaterLess{});
      row.main_len = static_cast<std::uint32_t>(row.cells.size());
    }
  }
  return m;
}

PairStats& RatingMatrix::SparseRow::find_or_insert(NodeId rater) {
  if (const PairStats* hit = find(rater)) return const_cast<PairStats&>(*hit);
  if (main_len == cells.size()) {
    // No tail yet. An ascending append is O(1) amortized, and a small row
    // stays one sorted run: its direct insert moves < kFlatRowCells cells.
    if (cells.empty() || cells.back().first < rater) {
      ++main_len;
      return cells.emplace_back(rater, PairStats{}).second;
    }
    if (cells.size() < kFlatRowCells) {
      ++main_len;
      const auto pos =
          std::lower_bound(cells.begin(), cells.end(), rater, RaterLess{});
      return cells.emplace(pos, rater, PairStats{})->second;
    }
  }
  // Fold a tail longer than sqrt(size) into the main run, so an insert
  // moves amortized O(sqrt(size)) cells instead of O(size).
  const std::size_t tail = cells.size() - main_len;
  if (tail * tail > cells.size()) {
    std::inplace_merge(cells.begin(), cells.begin() + main_len, cells.end(),
                       RaterLess{});
    main_len = static_cast<std::uint32_t>(cells.size());
  }
  const auto pos = std::lower_bound(cells.begin() + main_len, cells.end(),
                                    rater, RaterLess{});
  return cells.emplace(pos, rater, PairStats{})->second;
}

std::uint32_t RatingMatrix::SparseRow::seek_from(std::uint32_t from,
                                                 std::uint32_t lo,
                                                 std::uint32_t hi,
                                                 NodeId rater) const {
  const auto lower_bound = [&](std::uint32_t first, std::uint32_t last) {
    return static_cast<std::uint32_t>(
        std::lower_bound(cells.begin() + first, cells.begin() + last, rater,
                         RaterLess{}) -
        cells.begin());
  };
  if (from < lo || from > hi || (from > lo && cells[from - 1].first >= rater))
    return lower_bound(lo, hi);
  for (std::uint32_t step = 1; from < hi && cells[from].first < rater;
       step *= 2) {
    const std::uint32_t next = from + step;
    if (next >= hi || cells[next].first >= rater)
      return lower_bound(from + 1, next < hi ? next : hi);
    from = next;
  }
  return from;
}

PairStats& RatingMatrix::mutable_cell(NodeId ratee, NodeId rater) {
  assert(ratee < size() && rater < size());
  if (backend_ == MatrixBackend::kDense) return dense_(ratee, rater);
  return sparse_[ratee].find_or_insert(rater);
}

std::size_t RatingMatrix::approx_memory_bytes() const noexcept {
  std::size_t bytes = sizeof(RatingMatrix);
  bytes += meta_.capacity() * sizeof(RowMeta);
  if (backend_ == MatrixBackend::kDense) {
    bytes += dense_.rows() * dense_.cols() * sizeof(PairStats);
  } else {
    bytes += sparse_.capacity() * sizeof(SparseRow);
    for (const SparseRow& row : sparse_)
      bytes += row.cells.capacity() * sizeof(SparseCell);
  }
  return bytes;
}

std::size_t RatingMatrix::dense_footprint_bytes(std::size_t num_nodes) noexcept {
  return sizeof(RatingMatrix) + num_nodes * sizeof(RowMeta) +
         num_nodes * num_nodes * sizeof(PairStats);
}

void RatingMatrix::set_global_reputation(NodeId i, double rep,
                                         double high_rep_threshold) {
  auto& meta = meta_.at(i);
  const bool was_high = meta.high_reputed;
  meta.global_rep = rep;
  meta.high_reputed = rep > high_rep_threshold;
  if (meta.high_reputed && !was_high) ++high_count_;
  if (!meta.high_reputed && was_high) --high_count_;
}

void RatingMatrix::add_rating(NodeId ratee, NodeId rater, Score score) {
  assert(ratee < size() && rater < size() && ratee != rater);
  PairStats& cell = mutable_cell(ratee, rater);
  cell.add(score);
  meta_[ratee].totals.add(score);
  mark_dirty(ratee, rater);
  // Incremental frequent-rater aggregate: when a cell crosses the
  // threshold its whole history joins the aggregate; afterwards each new
  // rating is added directly. This is exactly how a deployed manager
  // keeps the joint-complement state at O(1) per rating.
  if (frequency_threshold_ > 0 && cell.total >= frequency_threshold_) {
    if (cell.total == frequency_threshold_) {
      meta_[ratee].frequent_totals += cell;
    } else {
      meta_[ratee].frequent_totals.add(score);
    }
  }
}

void RatingMatrix::clear_window() {
  for (NodeId i = 0; i < size(); ++i) {
    auto& meta = meta_[i];
    if (meta.totals.total == 0) continue;  // row never touched this window
    if (backend_ == MatrixBackend::kDense) {
      auto row = dense_.row(i);
      std::fill(row.begin(), row.end(), PairStats{});
    } else {
      sparse_[i] = SparseRow{};  // frees the row's storage
    }
    meta.totals = PairStats{};
    meta.frequent_totals = PairStats{};
  }
  if (dirty_on_) {
    // Cells were wiped wholesale without per-cell dirty records; the next
    // delta cannot describe the change, so force a full rebuild.
    dirty_.clear();
    dirty_complete_ = false;
  }
}

void RatingMatrix::restore_cell(NodeId ratee, NodeId rater,
                                const PairStats& stats) {
  assert(ratee < size() && rater < size() && ratee != rater);
  if (stats.total == 0) return;
  PairStats& cell = mutable_cell(ratee, rater);
  assert(cell.total == 0 && "restore_cell target must be empty");
  cell = stats;
  meta_[ratee].totals += stats;
  if (frequency_threshold_ > 0 && stats.total >= frequency_threshold_) {
    meta_[ratee].frequent_totals += stats;
  }
  mark_dirty(ratee, rater);
}

std::vector<std::pair<NodeId, PairStats>> RatingMatrix::take_row(
    NodeId ratee) {
  assert(ratee < size());
  std::vector<std::pair<NodeId, PairStats>> cells;
  for_each_nonzero_cell(ratee, [&cells](NodeId rater, const PairStats& stats) {
    cells.emplace_back(rater, stats);
  });
  if (cells.empty()) return cells;

  if (backend_ == MatrixBackend::kDense) {
    auto row = dense_.row(ratee);
    std::fill(row.begin(), row.end(), PairStats{});
  } else {
    sparse_[ratee] = SparseRow{};  // frees the row's storage
  }
  meta_[ratee].totals = PairStats{};
  meta_[ratee].frequent_totals = PairStats{};
  if (dirty_on_) {
    // Drop stale dirty keys for the row; the removal itself is not
    // expressible as a delta, so force a full rebuild on the next take.
    std::erase_if(dirty_, [ratee](std::uint64_t key) {
      return static_cast<NodeId>(key >> 32) == ratee;
    });
    dirty_complete_ = false;
  }
  return cells;
}

void RatingMatrix::set_dirty_tracking(bool on) {
  dirty_on_ = on;
  dirty_complete_ = false;  // mutations before this call were not observed
  dirty_.clear();
}

DirtyCells RatingMatrix::take_dirty_cells() {
  DirtyCells result;
  result.complete = dirty_complete_;
  result.cells.reserve(dirty_.size());
  for (std::uint64_t key : dirty_) {
    result.cells.emplace_back(static_cast<NodeId>(key >> 32),
                              static_cast<NodeId>(key & 0xffffffffu));
  }
  std::sort(result.cells.begin(), result.cells.end());
  dirty_.clear();
  dirty_complete_ = true;
  return result;
}

}  // namespace p2prep::rating
