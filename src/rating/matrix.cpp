#include "rating/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <new>
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

RatingMatrix::RatingMatrix(std::size_t num_nodes, ScanCost scan)
    : RatingMatrix(RowIndex::single(num_nodes), 0, scan) {}

RatingMatrix::RatingMatrix(std::shared_ptr<const RowIndex> index,
                           std::uint32_t part, ScanCost scan)
    : scan_(scan),
      index_(std::move(index)),
      part_(part),
      rows_(index_->nodes(part).size()) {}

void RatingMatrix::repartition(std::shared_ptr<const RowIndex> index) {
  if (index->num_nodes() != size() || part_ >= index->num_parts())
    throw std::invalid_argument("rating matrix: repartition changes shape");
  const std::span<const NodeId> nodes = owned_nodes();
  std::vector<RowPtr> rows(index->nodes(part_).size());
  for (std::uint32_t s = 0; s < rows_.size(); ++s) {
    const std::uint32_t to = index->slot(nodes[s], part_);
    const Row* row = rows_[s].get();
    if (to != RowIndex::kNoSlot)
      rows[to] = std::move(rows_[s]);
    else if (row != nullptr && row->high_reputed())
      --high_count_;  // host meta take_row left behind
    assert(to != RowIndex::kNoSlot || row == nullptr || row->size == 0);
  }
  rows_ = std::move(rows);
  index_ = std::move(index);
}

void RatingMatrix::insert_cell(std::uint32_t s, Cell cell) {
  Row* row = rows_[s].get();
  if (row->size == row->capacity) {
    // Grow by ~1.25x: bounded slack, amortized O(1) cells copied per insert.
    row = &resize_row(s, row->capacity + std::max(1u, row->size / 4));
  }
  Cell* const cells = row->cells();
  Cell* const end = cells + row->size;
  if (row->main_len == row->size) {
    // No tail yet. An ascending append is O(1), and a small row stays one
    // sorted run: its direct insert moves < kFlatRowCells cells.
    if (row->size == 0 || end[-1].rater < cell.rater) {
      *end = cell;
      ++row->main_len;
      ++row->size;
      return;
    }
    if (row->size < Row::kFlatRowCells) {
      Cell* const at =
          std::lower_bound(cells, end, cell.rater, RaterLess{});
      std::copy_backward(at, end, end + 1);
      *at = cell;
      ++row->main_len;
      ++row->size;
      return;
    }
  }
  // Fold a tail longer than sqrt(size) into the main run, so an insert
  // moves amortized O(sqrt(size)) cells instead of O(size).
  const std::size_t tail = row->size - row->main_len;
  if (tail * tail > row->size) {
    std::inplace_merge(cells, cells + row->main_len, end, RaterLess{});
    row->main_len = row->size;
  }
  Cell* const at =
      std::lower_bound(cells + row->main_len, end, cell.rater, RaterLess{});
  std::copy_backward(at, end, end + 1);
  *at = cell;
  ++row->size;
}

std::uint32_t RatingMatrix::Row::seek_from(std::uint32_t from,
                                           std::uint32_t lo, std::uint32_t hi,
                                           NodeId rater) const {
  const Cell* const c = cells();
  const auto lower_bound = [&](std::uint32_t first, std::uint32_t last) {
    return static_cast<std::uint32_t>(
        std::lower_bound(c + first, c + last, rater, RaterLess{}) - c);
  };
  if (from < lo || from > hi || (from > lo && c[from - 1].rater >= rater))
    return lower_bound(lo, hi);
  for (std::uint32_t step = 1; from < hi && c[from].rater < rater;
       step *= 2) {
    const std::uint32_t next = from + step;
    if (next >= hi || c[next].rater >= rater)
      return lower_bound(from + 1, next < hi ? next : hi);
    from = next;
  }
  return from;
}

RatingMatrix::Row& RatingMatrix::materialize(std::uint32_t s) {
  RowPtr& slot = rows_[s];
  if (slot == nullptr) {
    void* block = std::malloc(sizeof(Row));
    if (block == nullptr) throw std::bad_alloc();
    slot.reset(new (block) Row{});
  }
  return *slot;
}

RatingMatrix::Row& RatingMatrix::resize_row(std::uint32_t s,
                                            std::uint32_t capacity) {
  RowPtr& slot = rows_[s];
  assert(slot != nullptr && capacity >= slot->size);
  // Row and Cell are trivially copyable, so realloc may move them.
  void* block = std::realloc(
      slot.get(), sizeof(Row) + std::size_t{capacity} * sizeof(Cell));
  if (block == nullptr) throw std::bad_alloc();  // the old block is intact
  (void)slot.release();
  slot.reset(static_cast<Row*>(block));
  slot->capacity = capacity;
  return *slot;
}

bool RatingMatrix::release_if_unused(std::uint32_t s) {
  const Row& row = *rows_[s];
  if (row.size != 0 || !host_default(row.global_rep, row.high_reputed()))
    return false;
  rows_[s].reset();
  return true;
}

void RatingMatrix::clear_row(NodeId i, std::uint32_t s, Row& row) {
  drop_escaped(i, row);
  row.main_len = 0;
  row.size = 0;
  row.totals = PairStats{};
  row.frequent_totals = PairStats{};
  // A row that stays (for its host meta) frees its cell storage.
  if (!release_if_unused(s) && row.capacity > 0) resize_row(s, 0);
}

PairStats RatingMatrix::escaped_cell(NodeId ratee, NodeId rater) const {
  return escaped_.at(cell_key(ratee, rater));
}

std::uint32_t RatingMatrix::store_counts(NodeId ratee, NodeId rater,
                                         const PairStats& stats) {
  assert(stats.total > 0 && "a stored cell is never empty");
  if (packable(stats)) return pack(stats);
  escaped_.insert_or_assign(cell_key(ratee, rater), stats);
  return kEscaped;
}

PairStats RatingMatrix::add_to_cell(NodeId ratee, std::uint32_t s,
                                    NodeId rater, Score score) {
  assert(ratee < size() && rater < size());
  std::uint32_t* counts = rows_[s]->find(rater);
  if (counts == nullptr) {
    PairStats cell;
    cell.add(score);  // a single rating always packs
    insert_cell(s, {rater, pack(cell)});
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

void RatingMatrix::drop_escaped(NodeId i, const Row& row) {
  if (escaped_.empty()) return;
  for (std::uint32_t k = 0; k < row.size; ++k) {
    const Cell& c = row.cells()[k];
    if (c.counts == kEscaped) escaped_.erase(cell_key(i, c.rater));
  }
  if (escaped_.empty()) escaped_ = decltype(escaped_)();  // free the buckets
}

std::size_t RatingMatrix::approx_memory_bytes() const noexcept {
  std::size_t bytes = sizeof(RatingMatrix) + rows_.capacity() * sizeof(RowPtr);
  for (const RowPtr& row : rows_)
    if (row != nullptr)
      bytes += sizeof(Row) + std::size_t{row->capacity} * sizeof(Cell);
  // The escape store: its bucket array and one node per escaped
  // cell (a next pointer beside the key and stats), once it holds any.
  if (!escaped_.empty())
    bytes += escaped_.bucket_count() * sizeof(void*) +
             escaped_.size() *
                 (sizeof(void*) + sizeof(decltype(escaped_)::value_type));
  return bytes;
}

std::size_t RatingMatrix::dense_footprint_bytes(std::size_t num_nodes) noexcept {
  return sizeof(RatingMatrix) +
         num_nodes * (sizeof(RowPtr) + sizeof(Row)) +
         num_nodes * num_nodes * sizeof(PairStats);
}

void RatingMatrix::set_global_reputation(NodeId i, double rep,
                                         double high_rep_threshold) {
  const bool high = rep > high_rep_threshold;
  const std::uint32_t s = owned_slot(i);
  if (rows_[s] == nullptr && host_default(rep, high)) return;
  Row& row = materialize(s);
  if (high && !row.high_reputed()) ++high_count_;
  if (!high && row.high_reputed()) --high_count_;
  row.global_rep = rep;
  row.high = high;
  release_if_unused(s);
}

void RatingMatrix::add_rating(NodeId ratee, NodeId rater, Score score) {
  assert(rater < size() && ratee != rater);
  const std::uint32_t s = owned_slot(ratee);
  materialize(s);
  const PairStats cell = add_to_cell(ratee, s, rater, score);
  Row& row = *rows_[s];  // re-fetched: a new cell may move the row
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
  const std::span<const NodeId> nodes = owned_nodes();
  for (std::uint32_t s = 0; s < rows_.size(); ++s) {
    Row* row = rows_[s].get();
    if (row != nullptr && row->totals.total != 0)  // written this window
      clear_row(nodes[s], s, *row);
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
  assert(rater < size() && ratee != rater);
  if (stats.total == 0) return;
  const std::uint32_t s = owned_slot(ratee);
  assert(cell(ratee, rater).total == 0 && "restore_cell target must be empty");
  materialize(s);
  insert_cell(s, {rater, store_counts(ratee, rater, stats)});
  Row& row = *rows_[s];  // re-fetched: the insert may move the row
  row.totals += stats;
  if (frequency_threshold_ > 0 && stats.total >= frequency_threshold_) {
    row.frequent_totals += stats;
  }
  mark_dirty(ratee, rater);
}

void RatingMatrix::reserve_cells(NodeId ratee, std::size_t cells) {
  const std::uint32_t s = owned_slot(ratee);
  if (cells == 0) return;
  const Row& row = materialize(s);
  const std::size_t capacity = row.size + cells;
  assert(capacity < std::size_t{1} << 32);
  if (capacity > row.capacity)
    resize_row(s, static_cast<std::uint32_t>(capacity));
}

std::vector<std::pair<NodeId, PairStats>> RatingMatrix::take_row(
    NodeId ratee) {
  std::vector<std::pair<NodeId, PairStats>> cells;
  for_each_nonzero_cell(ratee, [&cells](NodeId rater, const PairStats& stats) {
    cells.emplace_back(rater, stats);
  });
  if (cells.empty()) return cells;

  const std::uint32_t s = slot(ratee);  // it holds cells, so it is owned
  clear_row(ratee, s, *rows_[s]);
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
