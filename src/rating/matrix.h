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
// Row storage. Every node has one 8-byte slot; its row (host meta —
// global reputation and high-reputed flag — window totals, frequent
// aggregate and, on the sparse backend, the cells) is allocated on the
// row's first write. On the sparse backend a row exists exactly while it
// holds a cell or non-default host meta: take_row, clear_window and
// set_global_reputation free it again once neither holds. An empty slot
// reads as an untouched row through every accessor (zero totals, no
// cells, global reputation 0, not high-reputed), so detectors charge the
// same costs either way. The dense oracle allocates every row up front
// and never frees one. clear_window and approx_memory_bytes walk a list
// of the existing rows, so they cost time in proportion to those rows.
//
// Two storage backends implement the same cell contract (MatrixBackend):
//  * kDense  — one contiguous n x n block (util::Matrix). Element access
//    and full-row scans cost exactly what the paper's complexity analysis
//    charges, so this is the reference ("oracle") representation.
//  * kSparse — one flat vector of non-empty (rater, stats) cells per row,
//    kept sorted by rater (layout below). Real rating graphs are extremely
//    sparse (the Amazon/Overstock traces), so this cuts the footprint from
//    O(n^2) to O(nnz) while producing bit-identical detection results;
//    tests/differential/ proves the equivalence against the dense oracle.
//    Sharded service managers default to this backend.
//
// Sparse row layout. A row is a sorted main run plus a sorted tail of at
// most ~sqrt(row size) cells, in one std::vector of 8-byte cells and no
// per-cell heap node. A new cell that sorts after every stored one
// (restore_cell replay, build()) is an O(1) append to the main run, and a
// row under kFlatRowCells cells takes a direct sorted insert. Any other
// new cell goes into the tail, and once the tail outgrows sqrt(row size)
// it is folded into the main run with std::inplace_merge. An insert
// therefore moves amortized O(sqrt(row size)) cells: a row filled with
// 100k distinct raters in shuffled order takes ~0.03 s, where a plain
// sorted insert takes ~1.3 s. Every row walk merges the two runs on the
// fly, so all visitors see ascending rater order with no per-row
// allocation or sort.
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
// counts the 8-byte row slots, each allocated row (72 bytes), its
// allocated cell capacity (8 bytes a cell) and the escape store.
//
// Detector hot paths consume rows through the backend-agnostic visitors
// (for_each_cell / for_each_nonzero_cell) instead of indexing a dense
// span. Row scans the paper's cost model charges element by element (the
// Basic method's complement scan) are charged from stored_cells(): n on
// the dense oracle (the paper's full-row scan), row nnz on the sparse
// backend.
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
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rating/pair_stats.h"
#include "rating/store.h"
#include "rating/types.h"
#include "util/matrix.h"

namespace p2prep::rating {

/// Storage representation of a RatingMatrix. Every detector verdict is
/// identical across backends (differential-tested); only memory footprint
/// and per-row scan cost differ.
enum class MatrixBackend : std::uint8_t {
  kDense,   ///< Contiguous n x n cells — the paper-cost oracle.
  kSparse,  ///< Sorted-run row of non-empty cells — O(nnz) memory.
};

[[nodiscard]] constexpr std::string_view to_string(MatrixBackend b) noexcept {
  return b == MatrixBackend::kDense ? "dense" : "sparse";
}

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
 public:
  RatingMatrix() = default;
  explicit RatingMatrix(std::size_t num_nodes,
                        MatrixBackend backend = MatrixBackend::kDense);

  /// Snapshots the window horizon of `store` into a matrix with the given
  /// backend. `global_reps[i]` is the host system's reputation for node i
  /// (its size must equal store.num_nodes()); rows with
  /// global_reps[i] > high_rep_threshold are flagged live. When
  /// `frequency_threshold` > 0, each row also carries the aggregate of its
  /// frequent raters' cells (every rater with N_(i,k) >= frequency_threshold)
  /// — the state a deployed manager keeps incrementally and the Optimized
  /// detector's joint-complement test reads in O(1).
  static RatingMatrix build(const RatingStore& store,
                            std::span<const double> global_reps,
                            double high_rep_threshold,
                            std::uint32_t frequency_threshold = 0,
                            MatrixBackend backend = MatrixBackend::kDense);

  [[nodiscard]] MatrixBackend backend() const noexcept { return backend_; }

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

  /// Number of live (high-reputed) rows — the paper's m.
  [[nodiscard]] std::size_t high_reputed_count() const noexcept {
    return high_count_;
  }

  [[nodiscard]] bool high_reputed(NodeId i) const {
    return row(i).high_reputed;
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

  /// a_(ratee,rater), by value: a sparse cell is stored packed (see the
  /// layout note at the top of this file), so there is no PairStats in
  /// memory to refer to. An absent sparse cell reads as the empty
  /// aggregate, exactly like an untouched dense cell. O(1) on the dense
  /// backend; on the sparse one O(1) per step of an ascending sweep along
  /// a row and O(log row nnz) otherwise — the Optimized method's per-pair
  /// read. Forced inline: the pair sweeps call it n times per high row,
  /// and GCC 12 otherwise emits an out-of-line call per probe, which made
  /// a serial Optimized sweep ~15% slower.
  [[nodiscard, gnu::always_inline]] PairStats cell(NodeId ratee,
                                                   NodeId rater) const {
    if (backend_ == MatrixBackend::kDense) return dense_(ratee, rater);
    const Row* row = rows_.at(ratee).get();
    const std::uint32_t* counts =
        row != nullptr ? row->sparse.find(rater) : nullptr;
    if (counts == nullptr) return {};
    return stats_of(ratee, rater, *counts);
  }

  /// Number of cells for_each_cell visits in row `ratee`: n on the dense
  /// backend, the row's non-empty cells on the sparse one.
  [[nodiscard]] std::size_t stored_cells(NodeId ratee) const {
    return backend_ == MatrixBackend::kDense ? size()
                                             : row(ratee).sparse.cells.size();
  }

  /// Visits every STORED cell of row `ratee` as fn(rater, stats), in
  /// ascending rater order on both backends. The dense backend stores all
  /// n columns (including empty ones — the paper's full-row scan); the
  /// sparse backend stores only non-empty cells. This is the detector
  /// hot-path row iterator.
  template <typename Fn>
  void for_each_cell(NodeId ratee, Fn&& fn) const {
    if (backend_ == MatrixBackend::kDense) {
      const auto row = dense_.row(ratee);
      for (NodeId k = 0; k < row.size(); ++k) fn(k, row[k]);
    } else {
      row(ratee).sparse.for_each([&](const SparseCell& c) {
        fn(c.rater, stats_of(ratee, c.rater, c.counts));
      });
    }
  }

  /// Visits the non-empty cells (total > 0) of row `ratee` in ascending
  /// rater order on BOTH backends — the deterministic enumeration used by
  /// snapshot/checkpoint/transfer paths, byte-stable across backends.
  template <typename Fn>
  void for_each_nonzero_cell(NodeId ratee, Fn&& fn) const {
    for_each_cell(ratee, [&fn](NodeId k, const PairStats& stats) {
      if (stats.total > 0) fn(k, stats);
    });
  }

  /// Row-range visitor: for_each_nonzero_cell over every row in
  /// [row_begin, row_end), ascending row then ascending rater order, as
  /// fn(ratee, rater, stats). Deterministic on both backends; the
  /// parallel detection passes partition a matrix into disjoint row
  /// ranges with this and merge the per-range results in range order.
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
  /// the row slots, the existing-row list, each existing row, its
  /// allocated cell capacity (8 bytes a sparse cell) and the escape
  /// store's buckets and nodes. Exact for the dense
  /// backend; tests/rating/matrix_memory_test.cpp holds the sparse one
  /// within 20% of the measured heap growth. The bench memory columns and
  /// the footprint regression test read this.
  [[nodiscard]] std::size_t approx_memory_bytes() const noexcept;

  /// What a dense matrix of `num_nodes` costs, without allocating it —
  /// the oracle the <5%-footprint regression check compares against.
  [[nodiscard]] static std::size_t dense_footprint_bytes(
      std::size_t num_nodes) noexcept;

  // --- Direct mutation (for tests and incremental managers) ---

  void set_global_reputation(NodeId i, double rep, double high_rep_threshold);
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
  /// existing rows are visited, so the cost is proportional to them; a
  /// sparse row whose host meta is at its default is freed.
  void clear_window();

  /// Restores a window cell verbatim (checkpoint recovery): installs
  /// `stats` at (ratee, rater) and folds it into the row totals and, when
  /// frequent, the frequent aggregate. The target cell must be empty; an
  /// empty `stats` restores nothing, so the sparse backend keeps storing
  /// only non-empty cells.
  void restore_cell(NodeId ratee, NodeId rater, const PairStats& stats);

  /// Extracts row `ratee` for a shard handoff: returns its non-empty
  /// cells in ascending rater order (the same enumeration restore_cell
  /// reinstalls on the receiving matrix), then clears the cells and the
  /// row's totals / frequent aggregate. Global reputation and the
  /// high-reputed flag are left in place — every shard tracks those for
  /// all nodes — and a sparse row without them is freed. Dirty tracking
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
  /// One stored sparse cell: the rater and its packed counters.
  struct SparseCell {
    NodeId rater;
    std::uint32_t counts;  ///< pack(stats), or kEscaped
  };
  static_assert(sizeof(SparseCell) == 8,
                "the cell size the memory notes quote");

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
    bool operator()(const SparseCell& a, const SparseCell& b) const {
      return a.rater < b.rater;
    }
    bool operator()(const SparseCell& a, NodeId rater) const {
      return a.rater < rater;
    }
  };

  /// One sparse row: non-empty cells in two runs sorted by rater,
  /// cells[0, main_len) and the tail cells[main_len, size()). A rater is
  /// stored in at most one of them.
  struct SparseRow {
    using Iter = std::vector<SparseCell>::const_iterator;

    /// Rows below this size keep no tail (see insert).
    static constexpr std::size_t kFlatRowCells = 64;

    std::vector<SparseCell> cells;
    std::uint32_t main_len = 0;

    /// The packed counts of `rater`'s cell, nullptr when absent.
    [[nodiscard]] const std::uint32_t* find(NodeId rater) const {
      Finger& f = finger();
      if (f.row != this) f = {this, 0, main_len};
      const std::uint32_t in_main = seek(f.main, 0, main_len, rater);
      f.main = in_main;
      if (in_main < main_len && cells[in_main].rater == rater)
        return &cells[in_main].counts;
      const auto size = static_cast<std::uint32_t>(cells.size());
      if (main_len == size) return nullptr;  // no tail
      const std::uint32_t in_tail = seek(f.tail, main_len, size, rater);
      f.tail = in_tail;
      if (in_tail < size && cells[in_tail].rater == rater)
        return &cells[in_tail].counts;
      return nullptr;
    }
    [[nodiscard]] std::uint32_t* find(NodeId rater) {
      return const_cast<std::uint32_t*>(std::as_const(*this).find(rater));
    }

    /// Stores `cell`, whose rater must be absent (see the row layout note
    /// at the top of this file).
    void insert(SparseCell cell);

    /// fn(cell) over both runs, merged into ascending rater order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      Iter a = cells.begin();
      const Iter a_end = a + main_len;
      Iter b = a_end;
      while (a != a_end && b != cells.end())
        fn(a->rater < b->rater ? *a++ : *b++);
      for (; a != a_end; ++a) fn(*a);
      for (; b != cells.end(); ++b) fn(*b);
    }

    /// Index of the first cell of the sorted run cells[lo, hi) whose
    /// rater is >= `rater`, starting from the finger position `from`.
    /// Inline for the common sweep step, where the finger already sits
    /// there; seek_from() handles every other case.
    [[nodiscard]] std::uint32_t seek(std::uint32_t from, std::uint32_t lo,
                                     std::uint32_t hi, NodeId rater) const {
      if (from >= lo && from <= hi &&
          (from == lo || cells[from - 1].rater < rater) &&
          (from == hi || cells[from].rater >= rater))
        return from;
      return seek_from(from, lo, hi, rater);
    }
    /// seek()'s general case: gallops forward from `from` when every cell
    /// before it sorts below `rater` (an ascending run of probes), and
    /// binary-searches the whole run otherwise.
    [[nodiscard]] std::uint32_t seek_from(std::uint32_t from, std::uint32_t lo,
                                          std::uint32_t hi,
                                          NodeId rater) const;

    /// Per-thread search finger into the last sparse row read. The pair
    /// sweeps read a row at ascending raters (a_ij for j = 0..n-1), so
    /// resuming each run's search where the previous read stopped makes
    /// a whole-row sweep O(n + nnz) instead of O(n log nnz). The finger
    /// is only a starting hint: seek() checks it against the row's
    /// current cells, so a stale finger costs a binary search, never a
    /// wrong answer.
    struct Finger {
      const SparseRow* row = nullptr;
      std::uint32_t main = 0;  ///< position in the main run
      std::uint32_t tail = 0;  ///< position in the tail
    };
    static Finger& finger() {
      static thread_local Finger f;
      return f;
    }
  };

  /// One allocated row: the host meta, the window aggregates and, on the
  /// sparse backend, the cells.
  struct Row {
    double global_rep = 0.0;
    PairStats totals;
    PairStats frequent_totals;
    bool high_reputed = false;
    std::uint32_t list_pos = 0;  ///< index of this row's node in allocated_
    SparseRow sparse;            ///< kSparse cells (empty under kDense)
  };
  static_assert(sizeof(Row) <= 72, "the row size the memory notes quote");

  /// What an empty row slot reads as.
  static const Row kEmptyRow;

  /// Row i, or kEmptyRow while its slot is empty.
  [[nodiscard]] const Row& row(NodeId i) const {
    const Row* r = rows_.at(i).get();
    return r != nullptr ? *r : kEmptyRow;
  }
  /// Row i, allocated on first use.
  Row& materialize(NodeId i);
  /// Frees sparse row i once it holds no cell and its host meta is at the
  /// default; a no-op on the dense backend.
  void release_if_unused(NodeId i);
  /// Zeroes row i's cells and window aggregates (`row` is row i), then
  /// frees the row if that left it unused.
  void clear_row(NodeId i, Row& row);

  /// The (ratee, rater) key of the escape store and the dirty set.
  [[nodiscard]] static std::uint64_t cell_key(NodeId ratee, NodeId rater) {
    return (static_cast<std::uint64_t>(ratee) << 32) | rater;
  }
  /// The stats of sparse cell (ratee, rater), whose stored counts are
  /// `counts`.
  [[nodiscard]] PairStats stats_of(NodeId ratee, NodeId rater,
                                   std::uint32_t counts) const {
    if (counts == kEscaped) [[unlikely]]
      return escaped_cell(ratee, rater);
    return unpack(counts);
  }
  /// An escaped cell's stats (the cold half of stats_of).
  [[nodiscard]] PairStats escaped_cell(NodeId ratee, NodeId rater) const;
  /// The counts to store for non-empty sparse cell (ratee, rater):
  /// pack(stats) when it fits, else kEscaped after (re)writing the cell
  /// into the escape store.
  std::uint32_t store_counts(NodeId ratee, NodeId rater,
                             const PairStats& stats);
  /// Adds one `score` rating to cell (ratee, rater) of `row` (row `ratee`)
  /// and returns the cell's new stats; creates the cell on the sparse
  /// backend.
  PairStats add_to_cell(Row& row, NodeId ratee, NodeId rater, Score score);
  /// Drops row i's escaped cells from the escape store, releasing its
  /// storage once it is empty.
  void drop_escaped(NodeId i, const SparseRow& row);

  /// Records (ratee, rater) in the dirty set when tracking is on.
  void mark_dirty(NodeId ratee, NodeId rater) {
    if (dirty_on_) dirty_.insert(cell_key(ratee, rater));
  }

  MatrixBackend backend_ = MatrixBackend::kDense;
  util::Matrix<PairStats> dense_;  // kDense cells (empty under kSparse)
  std::vector<std::unique_ptr<Row>> rows_;  // one slot per node
  std::vector<NodeId> allocated_;  // nodes whose slot holds a row, any order
  // Sparse cells whose counts overflow a packed field, exact, by cell_key.
  std::unordered_map<std::uint64_t, PairStats> escaped_;
  std::size_t high_count_ = 0;
  std::uint32_t frequency_threshold_ = 0;
  bool dirty_on_ = false;
  bool dirty_complete_ = false;  // delta covers everything since last take
  std::unordered_set<std::uint64_t> dirty_;  // (ratee << 32) | rater keys
};

}  // namespace p2prep::rating
