#include "rating/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace p2prep::rating {

namespace {

/// Whether (rep, high) is the host meta an untouched row reads as. A -0.0
/// reputation is kept in a row so it reads back bit for bit.
bool host_default(double rep, bool high) {
  return !high && rep == 0.0 && !std::signbit(rep);
}

}  // namespace

const RatingMatrix::Row RatingMatrix::kEmptyRow{};

RatingMatrix::RatingMatrix(std::size_t num_nodes, MatrixBackend backend)
    : backend_(backend), rows_(num_nodes) {
  if (backend_ == MatrixBackend::kDense) {
    dense_ = util::Matrix<PairStats>(num_nodes, num_nodes);
    for (NodeId i = 0; i < num_nodes; ++i) materialize(i);
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
    m.set_global_reputation(i, global_reps[i], high_rep_threshold);
    const PairStats& totals = store.window_totals(i);
    if (totals.total == 0) continue;  // no window raters
    Row& row = m.materialize(i);
    row.totals = totals;
    store.for_each_window_rater(
        i, [&m, i, frequency_threshold, &row](NodeId rater,
                                              const PairStats& stats) {
          if (m.backend_ == MatrixBackend::kDense) {
            m.dense_(i, rater) = stats;
          } else {
            row.sparse.cells.push_back(
                {rater, m.store_counts(i, rater, stats)});
          }
          if (frequency_threshold > 0 && stats.total >= frequency_threshold)
            row.frequent_totals += stats;
        });
    if (m.backend_ == MatrixBackend::kSparse) {
      // The store enumerates raters unordered: sort once into the main run.
      std::vector<SparseCell>& cells = row.sparse.cells;
      std::sort(cells.begin(), cells.end(), RaterLess{});
      row.sparse.main_len = static_cast<std::uint32_t>(cells.size());
    }
  }
  return m;
}

void RatingMatrix::SparseRow::insert(SparseCell cell) {
  if (main_len == cells.size()) {
    // No tail yet. An ascending append is O(1) amortized, and a small row
    // stays one sorted run: its direct insert moves < kFlatRowCells cells.
    if (cells.empty() || cells.back().rater < cell.rater) {
      ++main_len;
      cells.push_back(cell);
      return;
    }
    if (cells.size() < kFlatRowCells) {
      ++main_len;
      cells.insert(std::lower_bound(cells.begin(), cells.end(), cell.rater,
                                    RaterLess{}),
                   cell);
      return;
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
  cells.insert(std::lower_bound(cells.begin() + main_len, cells.end(),
                                cell.rater, RaterLess{}),
               cell);
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
  if (from < lo || from > hi || (from > lo && cells[from - 1].rater >= rater))
    return lower_bound(lo, hi);
  for (std::uint32_t step = 1; from < hi && cells[from].rater < rater;
       step *= 2) {
    const std::uint32_t next = from + step;
    if (next >= hi || cells[next].rater >= rater)
      return lower_bound(from + 1, next < hi ? next : hi);
    from = next;
  }
  return from;
}

RatingMatrix::Row& RatingMatrix::materialize(NodeId i) {
  std::unique_ptr<Row>& slot = rows_[i];
  if (slot == nullptr) {
    slot = std::make_unique<Row>();
    slot->list_pos = static_cast<std::uint32_t>(allocated_.size());
    allocated_.push_back(i);
  }
  return *slot;
}

void RatingMatrix::release_if_unused(NodeId i) {
  const Row& row = *rows_[i];
  if (backend_ == MatrixBackend::kDense || !row.sparse.cells.empty() ||
      !host_default(row.global_rep, row.high_reputed))
    return;
  // Swap-remove i from the existing-row list.
  const NodeId last = allocated_.back();
  allocated_[row.list_pos] = last;
  rows_[last]->list_pos = row.list_pos;
  allocated_.pop_back();
  if (allocated_.empty()) allocated_ = std::vector<NodeId>();  // free it
  rows_[i].reset();
}

void RatingMatrix::clear_row(NodeId i, Row& row) {
  if (backend_ == MatrixBackend::kDense) {
    auto cells = dense_.row(i);
    std::fill(cells.begin(), cells.end(), PairStats{});
  } else {
    drop_escaped(i, row.sparse);
    row.sparse = SparseRow{};  // frees the row's cell storage
  }
  row.totals = PairStats{};
  row.frequent_totals = PairStats{};
  release_if_unused(i);
}

PairStats RatingMatrix::escaped_cell(NodeId ratee, NodeId rater) const {
  return escaped_.at(cell_key(ratee, rater));
}

std::uint32_t RatingMatrix::store_counts(NodeId ratee, NodeId rater,
                                         const PairStats& stats) {
  assert(stats.total > 0 && "a stored sparse cell is never empty");
  if (packable(stats)) return pack(stats);
  escaped_.insert_or_assign(cell_key(ratee, rater), stats);
  return kEscaped;
}

PairStats RatingMatrix::add_to_cell(Row& row, NodeId ratee, NodeId rater,
                                    Score score) {
  assert(ratee < size() && rater < size());
  if (backend_ == MatrixBackend::kDense) {
    PairStats& cell = dense_(ratee, rater);
    cell.add(score);
    return cell;
  }
  std::uint32_t* counts = row.sparse.find(rater);
  if (counts == nullptr) {
    PairStats cell;
    cell.add(score);  // a single rating always packs
    row.sparse.insert({rater, pack(cell)});
    return cell;
  }
  if (*counts == kEscaped) {
    PairStats& cell = escaped_.at(cell_key(ratee, rater));
    cell.add(score);
    return cell;
  }
  PairStats cell = unpack(*counts);
  cell.add(score);
  *counts = store_counts(ratee, rater, cell);
  return cell;
}

void RatingMatrix::drop_escaped(NodeId i, const SparseRow& row) {
  if (escaped_.empty()) return;
  for (const SparseCell& c : row.cells)
    if (c.counts == kEscaped) escaped_.erase(cell_key(i, c.rater));
  if (escaped_.empty()) escaped_ = decltype(escaped_)();  // free the buckets
}

std::size_t RatingMatrix::approx_memory_bytes() const noexcept {
  std::size_t bytes = sizeof(RatingMatrix) +
                      rows_.capacity() * sizeof(std::unique_ptr<Row>) +
                      allocated_.capacity() * sizeof(NodeId) +
                      allocated_.size() * sizeof(Row);
  if (backend_ == MatrixBackend::kDense) {
    bytes += dense_.rows() * dense_.cols() * sizeof(PairStats);
  } else {
    for (const NodeId i : allocated_)
      bytes += rows_[i]->sparse.cells.capacity() * sizeof(SparseCell);
    // The escape store: its bucket array and one node per escaped cell (a
    // next pointer beside the key and stats), once it holds any.
    if (!escaped_.empty())
      bytes += escaped_.bucket_count() * sizeof(void*) +
               escaped_.size() *
                   (sizeof(void*) +
                    sizeof(decltype(escaped_)::value_type));
  }
  return bytes;
}

std::size_t RatingMatrix::dense_footprint_bytes(std::size_t num_nodes) noexcept {
  return sizeof(RatingMatrix) +
         num_nodes * (sizeof(std::unique_ptr<Row>) + sizeof(NodeId) +
                      sizeof(Row)) +
         num_nodes * num_nodes * sizeof(PairStats);
}

void RatingMatrix::set_global_reputation(NodeId i, double rep,
                                         double high_rep_threshold) {
  const bool high = rep > high_rep_threshold;
  if (rows_.at(i) == nullptr && host_default(rep, high)) return;
  Row& row = materialize(i);
  if (high && !row.high_reputed) ++high_count_;
  if (!high && row.high_reputed) --high_count_;
  row.global_rep = rep;
  row.high_reputed = high;
  release_if_unused(i);
}

void RatingMatrix::add_rating(NodeId ratee, NodeId rater, Score score) {
  assert(ratee < size() && rater < size() && ratee != rater);
  Row& row = materialize(ratee);
  const PairStats cell = add_to_cell(row, ratee, rater, score);
  row.totals.add(score);
  mark_dirty(ratee, rater);
  // Incremental frequent-rater aggregate: when a cell crosses the
  // threshold its whole history joins the aggregate; afterwards each new
  // rating is added directly. This is exactly how a deployed manager
  // keeps the joint-complement state at O(1) per rating.
  if (frequency_threshold_ > 0 && cell.total >= frequency_threshold_) {
    if (cell.total == frequency_threshold_) {
      row.frequent_totals += cell;
    } else {
      row.frequent_totals.add(score);
    }
  }
}

void RatingMatrix::clear_window() {
  // Backwards, so a freed row's swap-remove only moves an entry that was
  // already visited.
  for (std::size_t k = allocated_.size(); k-- > 0;) {
    const NodeId i = allocated_[k];
    Row& row = *rows_[i];
    if (row.totals.total != 0) clear_row(i, row);  // written this window
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
  assert(cell(ratee, rater).total == 0 && "restore_cell target must be empty");
  Row& row = materialize(ratee);
  if (backend_ == MatrixBackend::kDense) {
    dense_(ratee, rater) = stats;
  } else {
    row.sparse.insert({rater, store_counts(ratee, rater, stats)});
  }
  row.totals += stats;
  if (frequency_threshold_ > 0 && stats.total >= frequency_threshold_) {
    row.frequent_totals += stats;
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

  clear_row(ratee, *rows_[ratee]);  // it holds cells, so it exists
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
