#include "detect/pair_sweep.h"

#include <algorithm>
#include <vector>

#include "core/formula.h"
#include "core/predicates.h"

namespace p2prep::detect {

namespace {

using rating::NodeId;
using rating::PairStats;
using rating::RatingMatrix;

/// Splits [0, n) into contiguous ranges sized for the executor's
/// concurrency (over-decomposed 4x for load balance — the Basic sweep's
/// per-row work shrinks with the row index) and runs `range_fn(begin,
/// end, sub_report)` per range, merging sub-reports in range order.
core::DetectionReport sweep_ranges(
    const EpochSnapshot& snapshot, std::size_t n,
    const std::function<void(NodeId, NodeId, core::DetectionReport&)>&
        range_fn) {
  std::size_t tasks = 1;
  if (snapshot.executor != nullptr) {
    tasks = std::min<std::size_t>(
        std::max<std::size_t>(1, snapshot.executor->concurrency() * 4),
        std::max<std::size_t>(1, n));
  }
  std::vector<core::DetectionReport> parts(tasks);
  const std::size_t chunk = (n + tasks - 1) / tasks;
  run_tasks(snapshot.executor, tasks, [&](std::size_t t) {
    const auto begin = static_cast<NodeId>(t * chunk);
    const auto end = static_cast<NodeId>(std::min(n, (t + 1) * chunk));
    if (begin < end) range_fn(begin, end, parts[t]);
  });

  core::DetectionReport report = std::move(parts.front());
  for (std::size_t t = 1; t < parts.size(); ++t) {
    report.pairs.insert(report.pairs.end(), parts[t].pairs.begin(),
                        parts[t].pairs.end());
    report.cost += parts[t].cost;
  }
  report.canonicalize();
  return report;
}

/// Whether for_each_cell visits `cell` of `m`: every cell under kFullRow,
/// only the non-empty ones under kStored.
bool stored(const RatingMatrix& m, const PairStats& cell) {
  return m.scan_cost() == rating::ScanCost::kFullRow || cell.total > 0;
}

/// Cells a paper-literal scan of row i visits besides the diagonal — the
/// Basic method's complement scan before it skips the partner column, and
/// the Optimized method's frequent-aggregate recompute.
std::uint64_t row_scan_cells(const RatingMatrix& m, NodeId i) {
  return m.stored_cells(i) - (stored(m, m.cell(i, i)) ? 1 : 0);
}

/// Row i's frequent-rater aggregate (every rater with N_(i,k) >= T_N):
/// the matrix's incremental one when it was built with threshold T_N,
/// else recomputed from the row's cells (standalone matrices built without
/// a threshold). A deployed manager always takes the first branch.
PairStats frequent_totals(const RatingMatrix& m, NodeId i,
                          const core::DetectorConfig& cfg) {
  if (m.frequency_threshold() == cfg.frequency_min)
    return m.frequent_totals(i);
  PairStats frequent;
  m.for_each_nonzero_cell(i, [&](NodeId k, const PairStats& stats) {
    if (k != i && stats.total >= cfg.frequency_min) frequent += stats;
  });
  return frequent;
}

/// Evidence for a flagged (i, j) read from the two owner matrices, with
/// complement fractions derived from the row totals.
core::PairEvidence pair_evidence(const RatingMatrix& mi, NodeId i,
                                 const RatingMatrix& mj, NodeId j) {
  core::PairEvidence ev;
  ev.first = i;
  ev.second = j;
  ev.ratings_to_first = mi.cell(i, j).total;
  ev.ratings_to_second = mj.cell(j, i).total;
  ev.positive_fraction_first = mi.cell(i, j).positive_fraction();
  ev.positive_fraction_second = mj.cell(j, i).positive_fraction();
  ev.complement_fraction_first =
      (mi.totals(i) - mi.cell(i, j)).positive_fraction();
  ev.complement_fraction_second =
      (mj.totals(j) - mj.cell(j, i)).positive_fraction();
  ev.global_rep_first = mi.global_reputation(i);
  ev.global_rep_second = mj.global_reputation(j);
  return ev;
}

}  // namespace

core::DetectionReport sweep_basic(const EpochSnapshot& snapshot,
                                  const core::DetectorConfig& cfg) {
  snapshot.check_owners();
  const std::size_t n = snapshot.num_nodes();
  // C1 for every node, read once from its owner matrix.
  std::vector<std::uint8_t> high(n);
  for (NodeId k = 0; k < n; ++k)
    high[k] = snapshot.matrix_of(k).high_reputed(k) ? 1 : 0;

  // One-directional Basic check of ratee i against rater j. The paper's
  // method reads a_ij and sums the complement N_(i,-j) with a scan of row
  // i excluding columns i and j; that scan is charged by its stored-cell
  // count (`row_scan`: row i's stored cells besides the diagonal), and
  // its sums are the row aggregates used here. `row` is row i of `mi`,
  // resolved once per i rather than once per probe.
  const auto directional = [&](core::DetectionReport& report,
                               const RatingMatrix& mi,
                               const RatingMatrix::RowView& row, NodeId i,
                               NodeId j, std::uint64_t row_scan,
                               double& positive_fraction,
                               double& complement_fraction) {
    const PairStats& cell = row.cell(j);
    report.cost.add_scan(1 + row_scan - (stored(mi, cell) ? 1 : 0));
    report.cost.add_check();
    if (cell.total < cfg.frequency_min) return false;  // C4
    positive_fraction = cell.positive_fraction();
    report.cost.add_check();
    if (positive_fraction < cfg.positive_fraction_min) return false;  // C3
    // Joint-complement mode also drops every other frequent rater; the
    // partner is one of them (C4 passed).
    const PairStats complement =
        mi.totals(i) -
        (cfg.joint_complement ? frequent_totals(mi, i, cfg) : cell);
    report.cost.add_check();
    if (complement.total == 0) {
      complement_fraction = 0.0;
      return cfg.empty_complement_is_suspicious;
    }
    complement_fraction = complement.positive_fraction();
    return complement_fraction < cfg.complement_fraction_max;  // C2
  };

  return sweep_ranges(
      snapshot, n,
      [&](NodeId begin, NodeId end, core::DetectionReport& report) {
        for (NodeId i = begin; i < end; ++i) {
          report.cost.add_check();
          if (high[i] == 0) continue;  // C1
          const RatingMatrix& mi = snapshot.matrix_of(i);
          const RatingMatrix::RowView row_i = mi.row_view(i);
          const std::uint64_t row_scan = row_scan_cells(mi, i);
          for (NodeId j = 0; j < n; ++j) {
            // The paper's checked-pair marks: in mutual mode a
            // high-reputed j < i already examined the pair from its own
            // row. One-sided, that row checked only j's direction, so i's
            // is checked here too.
            if (j == i || (cfg.require_mutual && j < i && high[j] != 0))
              continue;
            // Read R_j: in mutual mode the partner must be high-reputed
            // before any deep work; a one-sided Sybil booster never earns
            // reputation and must not be exempted by its obscurity.
            report.cost.add_scan();
            report.cost.add_check();
            if (cfg.require_mutual && high[j] == 0) continue;

            double positive_fraction = 0.0;
            double complement_fraction = 0.0;
            if (!directional(report, mi, row_i, i, j, row_scan,
                             positive_fraction, complement_fraction))
              continue;
            // The evidence carries the fractions the checks used; n_j's
            // side stays unexamined in one-sided mode.
            const RatingMatrix& mj = snapshot.matrix_of(j);
            core::PairEvidence ev = pair_evidence(mi, i, mj, j);
            ev.positive_fraction_first = positive_fraction;
            ev.complement_fraction_first = complement_fraction;
            ev.positive_fraction_second = 0.0;
            ev.complement_fraction_second = 0.0;
            // Repeat the whole check from n_j's line.
            if (cfg.require_mutual) {
              snapshot.partner_check(i, j);
              if (!directional(report, mj, mj.row_view(j), j, i,
                               row_scan_cells(mj, j),
                               ev.positive_fraction_second,
                               ev.complement_fraction_second))
                continue;
            }
            report.pairs.push_back(ev);
          }
        }
      });
}

core::DetectionReport sweep_optimized(const EpochSnapshot& snapshot,
                                      const core::DetectorConfig& cfg) {
  snapshot.check_owners();
  const std::size_t n = snapshot.num_nodes();

  // One-directional Optimized check of ratee i against rater j: read
  // a_ij, C4, then Formula (2), or C3 plus the joint complement C2 from
  // the frequent-rater aggregate. `row` is row i, resolved once per i
  // rather than once per probe.
  const auto directional = [&](core::DetectionReport& report,
                               const RatingMatrix::RowView& row, NodeId j) {
    const PairStats& cell = row.cell(j);
    const RatingMatrix& mi = row.matrix();
    const NodeId i = row.ratee();
    report.cost.add_scan();
    report.cost.add_check();
    if (cell.total < cfg.frequency_min) return false;  // C4
    report.cost.add_check();
    if (!cfg.joint_complement) {
      return core::formula2_satisfied(
          static_cast<double>(mi.window_reputation(i)),
          cfg.positive_fraction_min, cfg.complement_fraction_max,
          mi.totals(i).total, cell.total, cfg.inclusive_bounds);
    }
    if (!core::positive_fraction_ok(cell, cfg)) return false;  // C3
    // One aggregate read, or the recompute's true cost: a row scan.
    report.cost.add_scan(mi.frequency_threshold() == cfg.frequency_min
                             ? 1
                             : row_scan_cells(mi, i));
    report.cost.add_check();
    return core::complement_ok(mi.totals(i) - frequent_totals(mi, i, cfg),
                               cfg);  // C2
  };

  return sweep_ranges(
      snapshot, n,
      [&](NodeId begin, NodeId end, core::DetectionReport& report) {
        // All ordered (i, j); a mutual pair surfaces from both sides and
        // canonicalize() dedups.
        for (NodeId i = begin; i < end; ++i) {
          const RatingMatrix& mi = snapshot.matrix_of(i);
          report.cost.add_check();
          if (!mi.high_reputed(i)) continue;  // C1
          const RatingMatrix::RowView row_i = mi.row_view(i);
          for (NodeId j = 0; j < n; ++j) {
            if (j == i || !directional(report, row_i, j)) continue;
            const RatingMatrix& mj = snapshot.matrix_of(j);
            if (cfg.require_mutual) {
              // Symmetric side: n_j high-reputed, rated frequently by n_i,
              // and passing the same test.
              snapshot.partner_check(i, j);
              report.cost.add_check();
              if (!mj.high_reputed(j) ||
                  !directional(report, mj.row_view(j), i))
                continue;
            }
            report.pairs.push_back(pair_evidence(mi, i, mj, j));
          }
        }
      });
}

}  // namespace p2prep::detect
