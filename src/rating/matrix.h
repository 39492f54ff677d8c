// The reputation manager's n x n rating matrix (paper Sec. IV-B).
//
// Row i describes ratee n_i; cell (i, j) holds the PairStats of rater n_j
// for n_i over the current update window T — exactly the paper's
// a_ij = <ID_i, R_i, N_(i,j), N+_(i,j)>. Per the paper, rows are only
// "non-empty" for nodes that receive ratings, and a decentralized manager
// (Sec. IV-D) stores only the rows of the nodes it is responsible for.
// A sharded service routes each rating to its ratee's shard, so each
// shard matrix writes only ~n/S of its n rows.
//
// Row storage. A matrix holds rows only for the nodes its partition owns
// (rating::RowIndex): one 8-byte slot per owned node, at the node's rank
// among its partition's nodes, so slots ascend with node id. A
// standalone matrix is the one-partition case and owns every node. Node
// i's row is resolved in one place, row_view(): owner(i) == this
// partition ? its slot : the empty row. Every accessor takes global ids,
// and a node another partition owns reads as an untouched row, which is
// the multi-matrix EpochSnapshot's contract. The index is shared by all
// matrices of one partitioning and not charged to any of them. A row is
// allocated on the row's first write as ONE heap block: a 48-byte header
// (host meta — global reputation and high-reputed flag — window totals,
// frequent aggregate and the cell bookkeeping) followed by the row's
// non-empty cells inline. A row exists exactly while it holds a cell or
// non-default host meta: take_row, clear_window and
// set_global_reputation free it again once neither holds. An empty slot
// reads as an untouched row through every accessor (zero totals, no
// cells, global reputation 0, not high-reputed).
// clear_window and approx_memory_bytes walk the owned slots, so they cost
// time in proportion to the nodes the partition owns. repartition()
// re-slots the rows for a new index without copying a cell, and drops
// the rows of nodes the partition no longer owns.
//
// One representation, two scan-cost rules (ScanCost). Every matrix stores
// only its non-empty cells: real rating graphs are extremely sparse (the
// Amazon/Overstock traces), so the footprint is O(nnz), not O(n^2). What
// a row scan costs is a separate choice, fixed at construction:
//  * kFullRow — a row scan visits all n columns, absent cells reading as
//    empty stats: the paper's cost model (Sec. IV-B, Fig. 13), where the
//    Basic method's complement scan charges n cells. The constructors
//    default to it, and so every paper-figure path uses it.
//  * kStored  — a row scan visits the row's stored cells only. Every
//    service shard matrix, every decentralized manager's matrix and the
//    CLI's detection matrix use this rule.
// The rule changes for_each_cell and stored_cells() and nothing else:
// cell reads, aggregates, for_each_nonzero_cell (checkpoints, take_row,
// the ring detector) and every detector verdict are identical under both.
// tests/rating/reference_matrix.h is the test-only reference model the
// differential suites hold every matrix against.
//
// Row layout. A row is a sorted main run plus a sorted tail of at most
// ~sqrt(row size) cells, all 8-byte cells in the row's block with no
// per-cell heap node. A new cell that sorts after every stored one
// (restore_cell replay) is an O(1) append to the main run, and a row
// under kFlatRowCells cells takes a direct sorted insert. Any other new
// cell goes into the tail, and once the tail outgrows sqrt(row size) it
// is folded into the main run with std::inplace_merge. An insert
// therefore moves amortized O(sqrt(row size)) cells: a row filled with
// 100k distinct raters in shuffled order takes ~0.03 s, where a plain
// sorted insert takes ~1.3 s. Every row walk merges the two runs on the
// fly, so all visitors see ascending rater order with no per-row
// allocation or sort.
//
// Cell capacity. A full row grows its block by about 1.25x (capacity +=
// max(1, size / 4)), so a row grown by inserts never holds more than
// max(1, size / 4) unused cells. Growth may move the block: a Row& is
// stale after any insert. Where a row's final count is known the block is
// sized exactly: restore_cell replay preceded by reserve_cells()
// (checkpoint restore and the receiver of a take_row handoff).
//
// Packed cells. A cell is its rater plus one word that packs N+ (11
// bits), N- (11 bits) and the neutral count (10 bits); N is their sum.
// A cell whose count outgrows its field stores the reserved word 0 (no
// stored cell is empty, so no packed cell is 0), and its exact stats move
// to a per-matrix escape store keyed by (ratee, rater). Rows carry no
// bytes for the store, and reading a packed cell never touches it. So
// every count stays exact; cell() returns a PairStats by value because a
// packed cell has none in memory. take_row and clear_window drop a row's
// escaped entries with its cells, and the store frees its buckets once it
// is empty.
//
// A cell read searches the main run, then the tail. Each search resumes
// from a per-thread finger left by the previous read of the same row, so
// ascending probes along one row — the pair sweeps' a_i0, a_i1, ...,
// a_i(n-1), the group detector's edge pass, the ring detector's
// dirty-cell reads — cost O(1) each instead of a binary search; any other
// access pattern falls back to a binary search. approx_memory_bytes()
// counts the 8-byte owned-row slots, each allocated row's 48-byte header,
// its cell capacity (8 bytes a cell) and the escape store.
//
// Detector hot paths consume rows through the visitors (for_each_cell /
// for_each_nonzero_cell). Row scans the paper's cost model charges element
// by element (the Basic method's complement scan) are charged from
// stored_cells(): n under kFullRow (the paper's full-row scan), row nnz
// under kStored.
//
// Two reputation views coexist on purpose:
//  * `global_reputation` — whatever the host reputation system computed
//    (e.g. EigenTrust scores). This is what T_R filters on (C1).
//  * `window_reputation` — the summation value R_i = N+_i - N-_i over the
//    same window the cells cover. Formula (1)/(2) of the paper is derived
//    under this model, so the Optimized detector evaluates its bound
//    against this view; quantities stay self-consistent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rating/pair_stats.h"
#include "rating/row_index.h"
#include "rating/types.h"

namespace p2prep::rating {

/// What a row scan of a RatingMatrix visits, and so what the paper's cost
/// model charges for it. Storage and every detector verdict are the same
/// under both rules; only for_each_cell and stored_cells() differ.
enum class ScanCost : std::uint8_t {
  kFullRow,  ///< all n columns — the paper's full-row scan
  kStored,   ///< the row's stored (non-empty) cells
};

/// Cells mutated since the last take_dirty_cells() call, for incremental
/// consumers (the streaming ring detector caches derived per-cell state
/// between epochs and re-derives only these). `complete == false` means
/// the delta does not cover every mutation since the last take (tracking
/// was just enabled, or clear_window() wiped cells wholesale) — the
/// consumer must rebuild from the full matrix instead.
struct DirtyCells {
  bool complete = false;
  /// (ratee, rater) pairs, ascending — deterministic consumption order.
  std::vector<std::pair<NodeId, NodeId>> cells;
};

class RatingMatrix {
  struct Row;  // one allocated row (defined in the private section)

 public:
  RatingMatrix() : RatingMatrix(0) {}
  /// A standalone matrix: one partition owning every node of [0, num_nodes).
  explicit RatingMatrix(std::size_t num_nodes,
                        ScanCost scan = ScanCost::kFullRow);
  /// Partition `part` of `index`: rows for the nodes it owns only.
  RatingMatrix(std::shared_ptr<const RowIndex> index, std::uint32_t part,
               ScanCost scan = ScanCost::kFullRow);

  [[nodiscard]] ScanCost scan_cost() const noexcept { return scan_; }

  /// Number of nodes, owned or not: every accessor takes ids below it.
  [[nodiscard]] std::size_t size() const noexcept {
    return index_->num_nodes();
  }

  /// Whether this matrix's partition owns node i (holds a slot for its
  /// row). Mutators refuse the nodes it does not own.
  [[nodiscard]] bool owns(NodeId i) const noexcept {
    return i < size() && index_->slot(i, part_) != RowIndex::kNoSlot;
  }
  /// The owned nodes, ascending: owned_nodes()[k] holds slot k.
  [[nodiscard]] std::span<const NodeId> owned_nodes() const noexcept {
    return index_->nodes(part_);
  }
  [[nodiscard]] const std::shared_ptr<const RowIndex>& row_index()
      const noexcept {
    return index_;
  }
  /// Re-slots the rows for `index` (same node count, same partition
  /// number): a row this partition still owns moves to its new slot
  /// without copying a cell; the row of a node it no longer owns is
  /// dropped, host meta included. Every leaving row's cells must have
  /// been taken (take_row) first.
  void repartition(std::shared_ptr<const RowIndex> index);

  /// Number of live (high-reputed) rows — the paper's m.
  [[nodiscard]] std::size_t high_reputed_count() const noexcept {
    return high_count_;
  }

  [[nodiscard]] bool high_reputed(NodeId i) const {
    return row(i).high_reputed();
  }
  [[nodiscard]] double global_reputation(NodeId i) const {
    return row(i).global_rep;
  }
  /// Window totals N_i / N+_i / N-_i for ratee i.
  [[nodiscard]] const PairStats& totals(NodeId i) const {
    return row(i).totals;
  }
  /// Summation reputation over the window: N+_i - N-_i.
  [[nodiscard]] std::int64_t window_reputation(NodeId i) const {
    return row(i).totals.reputation_delta();
  }

  /// Aggregate over row i's frequent raters (N_(i,k) >= the matrix's
  /// frequency threshold). Zero stats when no threshold was configured.
  [[nodiscard]] const PairStats& frequent_totals(NodeId i) const {
    return row(i).frequent_totals;
  }
  /// The frequency threshold the frequent aggregates were built with
  /// (0 = none).
  [[nodiscard]] std::uint32_t frequency_threshold() const noexcept {
    return frequency_threshold_;
  }

  /// Row `ratee` resolved once, so that reads along it skip the row
  /// lookup. Valid until the matrix is next mutated.
  class RowView {
   public:
    /// a_(ratee,rater), by value: a cell is stored packed (see the layout
    /// note at the top of this file), so there is no PairStats in memory
    /// to refer to. An absent cell reads as the empty aggregate. O(1) per
    /// step of an ascending sweep along the row and O(log row nnz)
    /// otherwise — the Optimized method's per-pair read. Forced inline:
    /// the pair sweeps call it n times per high row, and GCC 12 otherwise
    /// emits an out-of-line call per probe, which made a serial Optimized
    /// sweep ~15% slower.
    [[nodiscard, gnu::always_inline]] PairStats cell(NodeId rater) const {
      const std::uint32_t* counts =
          row_ != nullptr ? row_->find(rater) : nullptr;
      if (counts == nullptr) return {};
      return matrix_->stats_of(ratee_, rater, *counts);
    }
    [[nodiscard]] const RatingMatrix& matrix() const { return *matrix_; }
    [[nodiscard]] NodeId ratee() const { return ratee_; }

   private:
    friend class RatingMatrix;
    const RatingMatrix* matrix_ = nullptr;
    NodeId ratee_ = 0;
    const Row* row_ = nullptr;  ///< null for an empty row
  };

  /// The one row lookup: row `ratee` when this partition owns it, else
  /// the empty row. Throws std::out_of_range for ratee >= size().
  [[nodiscard]] RowView row_view(NodeId ratee) const {
    RowView view;
    view.matrix_ = this;
    view.ratee_ = ratee;
    const std::uint32_t s = slot(ratee);
    if (s == RowIndex::kNoSlot) return view;
    view.row_ = rows_[s].get();
    return view;
  }

  /// a_(ratee,rater); see RowView::cell. A sweep along one row reads it
  /// through row_view() instead. Forced inline like RowView::cell.
  [[nodiscard, gnu::always_inline]] PairStats cell(NodeId ratee,
                                                   NodeId rater) const {
    return row_view(ratee).cell(rater);
  }

  /// Number of cells for_each_cell visits in row `ratee`: n under
  /// kFullRow, the row's non-empty cells under kStored.
  [[nodiscard]] std::size_t stored_cells(NodeId ratee) const {
    return scan_ == ScanCost::kFullRow ? size() : row(ratee).size;
  }

  /// Cells the block of row `ratee` has room for (0 for an empty slot);
  /// approx_memory_bytes() charges 8 bytes for each. See "Cell capacity"
  /// at the top of this file.
  [[nodiscard]] std::size_t cell_capacity(NodeId ratee) const {
    return row(ratee).capacity;
  }

  /// The row scan the scan-cost rule charges, as fn(rater, stats) in
  /// ascending rater order: under kFullRow all n columns, an absent cell
  /// reading as empty stats (the paper's full-row scan); under kStored
  /// the non-empty cells only. This is the detector hot-path row
  /// iterator.
  template <typename Fn>
  void for_each_cell(NodeId ratee, Fn&& fn) const {
    if (scan_ == ScanCost::kStored) {
      for_each_nonzero_cell(ratee, fn);
      return;
    }
    const RowView row = row_view(ratee);
    for (NodeId k = 0; k < size(); ++k) fn(k, row.cell(k));
  }

  /// Visits the non-empty cells (total > 0) of row `ratee` in ascending
  /// rater order under either rule — the deterministic enumeration used
  /// by snapshot/checkpoint/transfer paths, O(row nnz).
  template <typename Fn>
  void for_each_nonzero_cell(NodeId ratee, Fn&& fn) const {
    row(ratee).for_each([&](const Cell& c) {
      fn(c.rater, stats_of(ratee, c.rater, c.counts));
    });
  }

  /// Row-range visitor: for_each_nonzero_cell over every row in
  /// [row_begin, row_end), ascending row then ascending rater order, as
  /// fn(ratee, rater, stats). Deterministic; the parallel detection
  /// passes partition a matrix into disjoint row ranges with this and
  /// merge the per-range results in range order.
  template <typename Fn>
  void for_each_nonzero_cell_in_rows(NodeId row_begin, NodeId row_end,
                                     Fn&& fn) const {
    row_end = std::min<NodeId>(row_end, static_cast<NodeId>(size()));
    for (NodeId i = row_begin; i < row_end; ++i) {
      for_each_nonzero_cell(i, [&](NodeId k, const PairStats& stats) {
        fn(i, k, stats);
      });
    }
  }

  /// Resident-memory estimate of this matrix (cells + rows), in bytes:
  /// the owned-row slots, each existing row's header, its cell capacity
  /// (8 bytes a cell) and the escape store's buckets and nodes. The
  /// shared RowIndex is not charged: its host charges it once for all
  /// partitions (RowIndex::slot_table_bytes).
  /// tests/rating/matrix_memory_test.cpp holds it within 20% of the
  /// measured heap growth. The bench memory columns and
  /// the footprint regression test read this.
  [[nodiscard]] std::size_t approx_memory_bytes() const noexcept;

  /// What a standalone matrix of `num_nodes` would cost if it stored all
  /// n cells of every row as PairStats — an analytic figure, never
  /// allocated, that the footprint regression checks compare against.
  [[nodiscard]] static std::size_t dense_footprint_bytes(
      std::size_t num_nodes) noexcept;

  // --- Mutation (the managers, the CLI, benches and tests) ---

  /// Sets node i's host meta: its global reputation, and the high-reputed
  /// flag rep > high_rep_threshold.
  void set_global_reputation(NodeId i, double rep, double high_rep_threshold);
  /// Adds one rating to cell (ratee, rater). The caller drops self-ratings
  /// and out-of-range raters; they are only asserted against here.
  void add_rating(NodeId ratee, NodeId rater, Score score);
  /// Configures the frequency threshold for the incremental frequent
  /// aggregates. Call before the first add_rating.
  void set_frequency_threshold(std::uint32_t t) noexcept {
    frequency_threshold_ = t;
  }

  /// Resets the update window in place: zeroes every cell and the per-row
  /// totals / frequent aggregates. Global
  /// reputations, high-reputed flags, and the frequency threshold are
  /// preserved — they belong to the host system, not the window. Only
  /// owned slots are visited, so the cost is proportional to them; a
  /// row whose host meta is at its default is freed.
  void clear_window();

  /// Restores a window cell verbatim (checkpoint recovery): installs
  /// `stats` at (ratee, rater) and folds it into the row totals and, when
  /// frequent, the frequent aggregate. The target cell must be empty; an
  /// empty `stats` restores nothing, so the matrix keeps storing only
  /// non-empty cells.
  void restore_cell(NodeId ratee, NodeId rater, const PairStats& stats);

  /// Makes room in row `ratee` for `cells` more cells, sized exactly, so
  /// a replay of that many non-empty cells through restore_cell leaves no
  /// growth slack. A no-op for `cells` == 0.
  void reserve_cells(NodeId ratee, std::size_t cells);

  /// Extracts row `ratee` for a shard handoff: returns its non-empty
  /// cells in ascending rater order (the same enumeration restore_cell
  /// reinstalls on the receiving matrix), then clears the cells and the
  /// row's totals / frequent aggregate. Global reputation and the
  /// high-reputed flag are left in place until repartition() drops the
  /// row, and a row without them is freed. A node this partition
  /// does not own has nothing to take. Dirty tracking
  /// cannot express a removal, so a non-empty take marks the next delta
  /// incomplete (full detector rebuild).
  [[nodiscard]] std::vector<std::pair<NodeId, PairStats>> take_row(
      NodeId ratee);

  // --- Dirty-cell tracking (incremental detector support) ---

  /// Starts recording which cells add_rating / restore_cell touch. The
  /// first take_dirty_cells() after enabling reports complete = false
  /// (mutations before this call were not observed). Off by default:
  /// tracking costs one hash insert per rating.
  void set_dirty_tracking(bool on);
  [[nodiscard]] bool dirty_tracking() const noexcept { return dirty_on_; }
  /// Drains the recorded delta: cells touched since the last take, in
  /// ascending (ratee, rater) order, plus whether the delta is complete
  /// (see DirtyCells). Resets the recorder to a complete empty delta.
  [[nodiscard]] DirtyCells take_dirty_cells();

 private:
  /// One stored cell: the rater and its packed counters.
  struct Cell {
    NodeId rater;
    std::uint32_t counts;  ///< pack(stats), or kEscaped
  };
  static_assert(sizeof(Cell) == 8, "the cell size the memory notes quote");

  // Packed counters: N+ in bits 0-10, N- in bits 11-21 and the neutral
  // count in bits 22-31; N is their sum.
  static constexpr unsigned kSignBits = 11;
  static constexpr std::uint32_t kSignMax = (1u << kSignBits) - 1;
  static constexpr std::uint32_t kNeutralMax =
      (1u << (32 - 2 * kSignBits)) - 1;
  /// The counts of a cell held in the escape store. A stored cell is never
  /// empty, so no packed cell takes this value.
  static constexpr std::uint32_t kEscaped = 0;

  /// Whether `s` fits the packed fields. An inconsistent aggregate (N below
  /// N+ + N-) has a wrapped neutral count and does not, so it escapes and
  /// still reads back verbatim.
  [[nodiscard]] static constexpr bool packable(const PairStats& s) noexcept {
    return s.positive <= kSignMax && s.negative <= kSignMax &&
           s.neutral() <= kNeutralMax;
  }
  [[nodiscard]] static constexpr std::uint32_t pack(
      const PairStats& s) noexcept {
    return s.positive | s.negative << kSignBits |
           s.neutral() << (2 * kSignBits);
  }
  [[nodiscard]] static constexpr PairStats unpack(std::uint32_t c) noexcept {
    PairStats s;
    s.positive = c & kSignMax;
    s.negative = (c >> kSignBits) & kSignMax;
    s.total = s.positive + s.negative + (c >> (2 * kSignBits));
    return s;
  }

  /// Orders cells (and cells against a rater id) by rater.
  struct RaterLess {
    bool operator()(const Cell& a, const Cell& b) const {
      return a.rater < b.rater;
    }
    bool operator()(const Cell& a, NodeId rater) const {
      return a.rater < rater;
    }
  };

  /// One allocated row: a 48-byte header — the host meta, the window
  /// aggregates and the cell bookkeeping — followed in the same heap block
  /// by `capacity` cells. The stored cells are
  /// two runs sorted by rater, cells()[0, main_len) and the tail
  /// cells()[main_len, size); a rater is stored in at most one of them.
  struct Row {
    /// Rows below this size keep no tail (see insert_cell).
    static constexpr std::size_t kFlatRowCells = 64;

    double global_rep = 0.0;
    PairStats totals;
    PairStats frequent_totals;
    bool high = false;  ///< high-reputed (C1)
    std::uint32_t main_len = 0;
    std::uint32_t size = 0;      ///< stored cells
    std::uint32_t capacity = 0;  ///< cells the block has room for

    [[nodiscard]] bool high_reputed() const { return high; }

    /// The cells, inline after the header.
    [[nodiscard]] const Cell* cells() const {
      return reinterpret_cast<const Cell*>(this + 1);
    }
    [[nodiscard]] Cell* cells() {
      return reinterpret_cast<Cell*>(this + 1);
    }
    /// The packed counts of `rater`'s cell, nullptr when absent.
    [[nodiscard]] const std::uint32_t* find(NodeId rater) const {
      Finger& f = finger();
      if (f.row != this) f = {this, 0, main_len};
      const Cell* c = cells();
      const std::uint32_t in_main = seek(f.main, 0, main_len, rater);
      f.main = in_main;
      if (in_main < main_len && c[in_main].rater == rater)
        return &c[in_main].counts;
      if (main_len == size) return nullptr;  // no tail
      const std::uint32_t in_tail = seek(f.tail, main_len, size, rater);
      f.tail = in_tail;
      if (in_tail < size && c[in_tail].rater == rater)
        return &c[in_tail].counts;
      return nullptr;
    }
    [[nodiscard]] std::uint32_t* find(NodeId rater) {
      return const_cast<std::uint32_t*>(std::as_const(*this).find(rater));
    }

    /// fn(cell) over both runs, merged into ascending rater order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      const Cell* a = cells();
      const Cell* const a_end = a + main_len;
      const Cell* b = a_end;
      const Cell* const b_end = a + size;
      while (a != a_end && b != b_end) fn(a->rater < b->rater ? *a++ : *b++);
      for (; a != a_end; ++a) fn(*a);
      for (; b != b_end; ++b) fn(*b);
    }

    /// Index of the first cell of the sorted run cells()[lo, hi) whose
    /// rater is >= `rater`, starting from the finger position `from`.
    /// Inline for the common sweep step, where the finger already sits
    /// there; seek_from() handles every other case.
    [[nodiscard]] std::uint32_t seek(std::uint32_t from, std::uint32_t lo,
                                     std::uint32_t hi, NodeId rater) const {
      const Cell* c = cells();
      if (from >= lo && from <= hi &&
          (from == lo || c[from - 1].rater < rater) &&
          (from == hi || c[from].rater >= rater))
        return from;
      return seek_from(from, lo, hi, rater);
    }
    /// seek()'s general case: gallops forward from `from` when every cell
    /// before it sorts below `rater` (an ascending run of probes), and
    /// binary-searches the whole run otherwise.
    [[nodiscard]] std::uint32_t seek_from(std::uint32_t from, std::uint32_t lo,
                                          std::uint32_t hi,
                                          NodeId rater) const;

    /// Per-thread search finger into the last row read. The pair
    /// sweeps read a row at ascending raters (a_ij for j = 0..n-1), so
    /// resuming each run's search where the previous read stopped makes
    /// a whole-row sweep O(n + nnz) instead of O(n log nnz). The finger
    /// is only a starting hint: seek() checks it against the row's
    /// current cells, so a stale finger (a moved, freed or reused block)
    /// costs a binary search, never a wrong answer.
    struct Finger {
      const Row* row = nullptr;
      std::uint32_t main = 0;  ///< position in the main run
      std::uint32_t tail = 0;  ///< position in the tail
    };
    static Finger& finger() {
      static thread_local Finger f;
      return f;
    }
  };
  static_assert(sizeof(Row) == 48, "the row header size the memory notes quote");
  static_assert(sizeof(Row) % alignof(Cell) == 0,
                "cells start aligned right after the header");

  /// Owns a row block, which is malloc'd so that growth can realloc it.
  struct FreeRow {
    void operator()(Row* row) const noexcept { std::free(row); }
  };
  using RowPtr = std::unique_ptr<Row, FreeRow>;

  /// What an empty row slot reads as.
  static const Row kEmptyRow;

  /// Node i's slot, or RowIndex::kNoSlot when this partition does not
  /// own it. Throws std::out_of_range for i >= size().
  [[nodiscard]] std::uint32_t slot(NodeId i) const {
    return index_->checked_slot(i, part_);
  }
  /// Node i's slot; throws std::out_of_range unless this partition owns i.
  [[nodiscard]] std::uint32_t owned_slot(NodeId i) const {
    return index_->owned_slot(i, part_);
  }
  /// Row i, or kEmptyRow while it has no row here.
  [[nodiscard]] const Row& row(NodeId i) const {
    const Row* r = row_view(i).row_;
    return r != nullptr ? *r : kEmptyRow;
  }
  /// The row at slot s, allocated (with no cell capacity) on first use.
  Row& materialize(std::uint32_t s);
  /// Reallocates the existing row at slot s to hold `capacity` >= its
  /// size cells. The block may move: references to the row are stale
  /// after it.
  Row& resize_row(std::uint32_t s, std::uint32_t capacity);
  /// Stores `cell` in the existing row at slot s, whose rater must
  /// be absent (see the row layout note at the top of this file); grows
  /// the block when it is full, so references to the row are stale after
  /// it.
  void insert_cell(std::uint32_t s, Cell cell);
  /// Frees the row at slot s once it holds no cell and its host meta is
  /// at the default, and returns whether it did.
  bool release_if_unused(std::uint32_t s);
  /// Zeroes node i's cells and window aggregates (`row` is its row, at
  /// slot s), then frees the row if that left it unused, else its cell
  /// capacity.
  void clear_row(NodeId i, std::uint32_t s, Row& row);

  /// The (ratee, rater) key of the escape store and the dirty set.
  [[nodiscard]] static std::uint64_t cell_key(NodeId ratee, NodeId rater) {
    return (static_cast<std::uint64_t>(ratee) << 32) | rater;
  }
  /// The stats of cell (ratee, rater), whose stored counts are
  /// `counts`.
  [[nodiscard]] PairStats stats_of(NodeId ratee, NodeId rater,
                                   std::uint32_t counts) const {
    if (counts == kEscaped) [[unlikely]]
      return escaped_cell(ratee, rater);
    return unpack(counts);
  }
  /// An escaped cell's stats (the cold half of stats_of).
  [[nodiscard]] PairStats escaped_cell(NodeId ratee, NodeId rater) const;
  /// The counts to store for non-empty cell (ratee, rater):
  /// pack(stats) when it fits, else kEscaped after (re)writing the cell
  /// into the escape store.
  std::uint32_t store_counts(NodeId ratee, NodeId rater,
                             const PairStats& stats);
  /// Adds one `score` rating to cell (ratee, rater) of existing row
  /// `ratee`, at slot s, and returns the cell's new stats; a new cell may
  /// grow the row, so references to the row are stale after it.
  PairStats add_to_cell(NodeId ratee, std::uint32_t s, NodeId rater,
                        Score score);
  /// Drops row i's escaped cells from the escape store, releasing its
  /// storage once it is empty.
  void drop_escaped(NodeId i, const Row& row);

  /// Records (ratee, rater) in the dirty set when tracking is on.
  void mark_dirty(NodeId ratee, NodeId rater) {
    if (dirty_on_) dirty_.insert(cell_key(ratee, rater));
  }

  ScanCost scan_ = ScanCost::kFullRow;
  std::shared_ptr<const RowIndex> index_;  // shared by the partitioning
  std::uint32_t part_ = 0;                 // this matrix's partition
  std::vector<RowPtr> rows_;       // one slot per owned node
  // Cells whose counts overflow a packed field, exact, by cell_key.
  std::unordered_map<std::uint64_t, PairStats> escaped_;
  std::size_t high_count_ = 0;
  std::uint32_t frequency_threshold_ = 0;
  bool dirty_on_ = false;
  bool dirty_complete_ = false;  // delta covers everything since last take
  std::unordered_set<std::uint64_t> dirty_;  // (ratee << 32) | rater keys
};

}  // namespace p2prep::rating
