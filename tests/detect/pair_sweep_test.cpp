// The cell-driven pair sweeps (detect/pair_sweep.h) against an oracle: the
// paper-literal Basic / Optimized loops, which probe every column j of
// every high-reputed row (Basic with the paper's checked-pair marks and an
// element-by-element complement row scan). Over 100 randomized traces,
// under both scan-cost rules, over one matrix and over three shard matrices,
// serial and through a thread-pool executor, the sweeps must flag the same
// pairs with the same evidence AND charge the same element scans and
// checks as the oracle does on the combined matrix — the Figure 13 cost
// model, charged analytically for the cells the sweeps never visit.
#include "detect/pair_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/formula.h"
#include "core/predicates.h"
#include "detect/accomplice_exchange.h"
#include "detect/executor.h"
#include "detect/group_detector.h"
#include "detect/registry.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "tests/differential/trace_gen.h"
#include "tests/rating/reference_matrix.h"

namespace p2prep {
namespace {

using core::DetectionReport;
using core::DetectorConfig;
using rating::NodeId;
using rating::PairStats;
using rating::RatingMatrix;
using rating::ScanCost;

// --- Oracle: the paper-literal single-matrix loops -------------------------

struct RowScan {
  std::uint64_t total = 0;
  std::uint64_t positive = 0;
};

/// Basic: scans row `ratee` excluding column `excluded`, one element scan
/// per stored cell visited; joint-complement mode skips frequent raters.
RowScan scan_row_excluding(const RatingMatrix& m, const DetectorConfig& cfg,
                           NodeId ratee, NodeId excluded,
                           util::CostCounter& cost) {
  RowScan r;
  m.for_each_cell(ratee, [&](NodeId k, const PairStats& stats) {
    if (k == ratee || k == excluded) return;
    cost.add_scan();
    if (cfg.joint_complement && stats.total >= cfg.frequency_min) return;
    r.total += stats.total;
    r.positive += stats.positive;
  });
  return r;
}

bool basic_directional(const RatingMatrix& m, const DetectorConfig& cfg,
                       NodeId i, NodeId j, double& positive_fraction,
                       double& complement_fraction, util::CostCounter& cost) {
  const PairStats& from_j = m.cell(i, j);
  cost.add_scan();
  const RowScan scan = scan_row_excluding(m, cfg, i, j, cost);
  cost.add_check();
  if (from_j.total < cfg.frequency_min) return false;
  positive_fraction = from_j.positive_fraction();
  cost.add_check();
  if (positive_fraction < cfg.positive_fraction_min) return false;
  cost.add_check();
  if (scan.total == 0) {
    complement_fraction = 0.0;
    return cfg.empty_complement_is_suspicious;
  }
  complement_fraction =
      static_cast<double>(scan.positive) / static_cast<double>(scan.total);
  return complement_fraction < cfg.complement_fraction_max;
}

DetectionReport oracle_basic(const RatingMatrix& m, const DetectorConfig& cfg) {
  const std::size_t n = m.size();
  DetectionReport out;
  std::vector<std::uint8_t> marks(n * n, 0);
  for (NodeId i = 0; i < n; ++i) {
    out.cost.add_check();
    if (!m.high_reputed(i)) continue;
    for (NodeId j = 0; j < n; ++j) {
      if (j == i || marks[i * n + j] != 0) continue;
      out.cost.add_scan();
      out.cost.add_check();
      if (cfg.require_mutual && !m.high_reputed(j)) continue;
      core::PairEvidence ev;
      ev.first = i;
      ev.second = j;
      ev.ratings_to_first = m.cell(i, j).total;
      ev.ratings_to_second = m.cell(j, i).total;
      ev.global_rep_first = m.global_reputation(i);
      ev.global_rep_second = m.global_reputation(j);
      const bool i_side =
          basic_directional(m, cfg, i, j, ev.positive_fraction_first,
                            ev.complement_fraction_first, out.cost);
      // One-sided, each direction is its own check: no marks.
      if (cfg.require_mutual) {
        marks[i * n + j] = 1;
        marks[j * n + i] = 1;
      }
      if (!i_side) continue;
      if (cfg.require_mutual &&
          !basic_directional(m, cfg, j, i, ev.positive_fraction_second,
                             ev.complement_fraction_second, out.cost))
        continue;
      out.pairs.push_back(ev);
    }
  }
  out.canonicalize();
  return out;
}

bool optimized_directional(const RatingMatrix& m, const DetectorConfig& cfg,
                           NodeId i, NodeId j, util::CostCounter& cost) {
  const PairStats& from_j = m.cell(i, j);
  cost.add_scan();
  cost.add_check();
  if (from_j.total < cfg.frequency_min) return false;
  if (!cfg.joint_complement) {
    cost.add_check();
    return core::formula2_satisfied(
        static_cast<double>(m.window_reputation(i)), cfg.positive_fraction_min,
        cfg.complement_fraction_max, m.totals(i).total, from_j.total,
        cfg.inclusive_bounds);
  }
  cost.add_check();
  if (!core::positive_fraction_ok(from_j, cfg)) return false;
  PairStats frequent;
  if (m.frequency_threshold() == cfg.frequency_min) {
    frequent = m.frequent_totals(i);
    cost.add_scan();
  } else {
    m.for_each_cell(i, [&](NodeId k, const PairStats& stats) {
      if (k == i) return;
      cost.add_scan();
      if (stats.total >= cfg.frequency_min) frequent += stats;
    });
  }
  cost.add_check();
  return core::complement_ok(m.totals(i) - frequent, cfg);
}

DetectionReport oracle_optimized(const RatingMatrix& m,
                                 const DetectorConfig& cfg) {
  const std::size_t n = m.size();
  DetectionReport out;
  for (NodeId i = 0; i < n; ++i) {
    out.cost.add_check();
    if (!m.high_reputed(i)) continue;
    for (NodeId j = 0; j < n; ++j) {
      if (j == i) continue;
      if (!optimized_directional(m, cfg, i, j, out.cost)) continue;
      if (cfg.require_mutual) {
        out.cost.add_check();
        if (!m.high_reputed(j)) continue;
        if (!optimized_directional(m, cfg, j, i, out.cost)) continue;
      }
      core::PairEvidence ev;
      ev.first = i;
      ev.second = j;
      ev.ratings_to_first = m.cell(i, j).total;
      ev.ratings_to_second = m.cell(j, i).total;
      ev.positive_fraction_first = m.cell(i, j).positive_fraction();
      ev.positive_fraction_second = m.cell(j, i).positive_fraction();
      ev.complement_fraction_first =
          (m.totals(i) - m.cell(i, j)).positive_fraction();
      ev.complement_fraction_second =
          (m.totals(j) - m.cell(j, i)).positive_fraction();
      ev.global_rep_first = m.global_reputation(i);
      ev.global_rep_second = m.global_reputation(j);
      out.pairs.push_back(ev);
    }
  }
  out.canonicalize();
  return out;
}

// --- Fixture -----------------------------------------------------------------

/// One trace built as a combined matrix plus `shards` shard matrices
/// (node i's row in matrix i % shards, every matrix carrying every node's
/// reputation), for a given scan-cost rule and frequency threshold.
struct World {
  RatingMatrix combined;
  std::vector<RatingMatrix> shards;
  std::vector<std::uint32_t> owners;

  World(const testgen::Trace& trace, const DetectorConfig& cfg,
        std::size_t num_shards, std::uint32_t threshold,
        ScanCost scan) {
    std::vector<std::vector<rating::Rating>> parts(num_shards);
    for (std::size_t i = 0; i < trace.n; ++i)
      owners.push_back(static_cast<std::uint32_t>(i % num_shards));
    for (const rating::Rating& r : trace.ratings)
      parts[owners[r.ratee]].push_back(r);
    const std::vector<double> reps = testgen::reputations_of(trace);
    combined = testgen::window_matrix(trace.ratings, reps,
                                      cfg.high_rep_threshold, threshold, scan);
    for (const std::vector<rating::Rating>& part : parts) {
      shards.push_back(testgen::window_matrix(
          part, reps, cfg.high_rep_threshold, threshold, scan));
    }
  }

  [[nodiscard]] detect::EpochSnapshot snapshot() const {
    detect::EpochSnapshot snap;
    for (const RatingMatrix& m : shards) snap.matrices.push_back(&m);
    if (shards.size() > 1) snap.owners = owners;
    return snap;
  }
};

void expect_same_pairs(const DetectionReport& want,
                       const DetectionReport& got) {
  ASSERT_EQ(want.pairs.size(), got.pairs.size());
  for (std::size_t k = 0; k < want.pairs.size(); ++k) {
    const core::PairEvidence& a = want.pairs[k];
    const core::PairEvidence& b = got.pairs[k];
    EXPECT_EQ(a.first, b.first) << "pair " << k;
    EXPECT_EQ(a.second, b.second) << "pair " << k;
    EXPECT_EQ(a.ratings_to_first, b.ratings_to_first) << "pair " << k;
    EXPECT_EQ(a.ratings_to_second, b.ratings_to_second) << "pair " << k;
    EXPECT_EQ(a.positive_fraction_first, b.positive_fraction_first);
    EXPECT_EQ(a.positive_fraction_second, b.positive_fraction_second);
    EXPECT_EQ(a.complement_fraction_first, b.complement_fraction_first);
    EXPECT_EQ(a.complement_fraction_second, b.complement_fraction_second);
    EXPECT_EQ(a.global_rep_first, b.global_rep_first);
    EXPECT_EQ(a.global_rep_second, b.global_rep_second);
  }
}

detect::Executor& shared_executor() {
  static detect::ThreadPoolExecutor executor(3);
  return executor;
}

class PairSweepOracleTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  using Oracle = DetectionReport (*)(const RatingMatrix&,
                                     const DetectorConfig&);
  using Sweep = DetectionReport (*)(const detect::EpochSnapshot&,
                                    const DetectorConfig&);

  /// Every scan-cost rule x shard count x executor combination of `sweep`
  /// against `oracle` on the combined matrix. Every fifth seed builds the
  /// matrices without a frequency threshold, exercising the recompute
  /// fallback.
  void check(Oracle oracle, Sweep sweep) {
    const std::uint64_t seed = GetParam();
    const testgen::Trace trace = testgen::make_trace(seed);
    const DetectorConfig cfg = testgen::config_for(seed);
    const std::uint32_t threshold = seed % 5 == 0 ? 0 : cfg.frequency_min;
    for (ScanCost scan : {ScanCost::kFullRow, ScanCost::kStored}) {
      for (std::size_t shards : {1u, 3u}) {
        const World world(trace, cfg, shards, threshold, scan);
        const DetectionReport want = oracle(world.combined, cfg);
        for (detect::Executor* exec : {static_cast<detect::Executor*>(nullptr),
                                       &shared_executor()}) {
          SCOPED_TRACE(::testing::Message()
                       << testref::arm_name(scan) << " S=" << shards
                       << (exec != nullptr ? " executor" : " serial"));
          detect::EpochSnapshot snap = world.snapshot();
          snap.executor = exec;
          const DetectionReport got = sweep(snap, cfg);
          expect_same_pairs(want, got);
          EXPECT_EQ(want.cost.element_scans, got.cost.element_scans);
          EXPECT_EQ(want.cost.checks, got.cost.checks);
        }
      }
    }
  }
};

TEST_P(PairSweepOracleTest, BasicMatchesPaperLiteralLoop) {
  check(oracle_basic, detect::sweep_basic);
}

TEST_P(PairSweepOracleTest, OptimizedMatchesPaperLiteralLoop) {
  check(oracle_optimized, detect::sweep_optimized);
}

// detect_groups reads every row through its owner matrix, so a 3-matrix
// snapshot must name the same groups, with the same evidence and cost, as
// the combined matrix.
TEST_P(PairSweepOracleTest, GroupsMatchOneMatrix) {
  const std::uint64_t seed = GetParam();
  const testgen::Trace trace = testgen::make_trace(seed);
  const DetectorConfig cfg = testgen::config_for(seed);
  for (ScanCost scan : {ScanCost::kFullRow, ScanCost::kStored}) {
    SCOPED_TRACE(testref::arm_name(scan));
    const World world(trace, cfg, 3, cfg.frequency_min, scan);
    const detect::GroupDetectionReport want =
        detect::detect_groups(detect::EpochSnapshot::of(world.combined), cfg);
    const detect::GroupDetectionReport got =
        detect::detect_groups(world.snapshot(), cfg);
    ASSERT_EQ(want.groups.size(), got.groups.size());
    for (std::size_t g = 0; g < want.groups.size(); ++g)
      EXPECT_EQ(want.groups[g].to_string(), got.groups[g].to_string());
    EXPECT_EQ(want.cost.total(), got.cost.total());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairSweepOracleTest,
                         ::testing::Range<std::uint64_t>(0, 100));

// A multi-matrix snapshot must name the owner of every node: rows resolved
// by a guess instead would read the wrong shard's (empty) row. Sweeps, the
// accomplice exchange and the group and ring detectors reject a short
// owner table before reading any row.
TEST(PairSweepOracle, RejectsShortOwnerTable) {
  const testgen::Trace trace = testgen::make_trace(7);
  const DetectorConfig cfg = testgen::config_for(7);
  const World world(trace, cfg, 3, cfg.frequency_min, ScanCost::kStored);
  detect::EpochSnapshot snap = world.snapshot();
  snap.owners = snap.owners.first(snap.owners.size() - 1);
  EXPECT_THROW((void)detect::sweep_basic(snap, cfg), std::invalid_argument);
  EXPECT_THROW((void)detect::sweep_optimized(snap, cfg),
               std::invalid_argument);
  DetectionReport report;
  EXPECT_THROW(detect::propagate_accomplices(snap, cfg, report),
               std::invalid_argument);
  for (const char* name : {"group", "ring"}) {
    EXPECT_THROW((void)detect::make_detector(name, cfg)->on_epoch(snap),
                 std::invalid_argument)
        << name;
  }
}

// One-sided (require_mutual = false), a pair is flagged when either
// direction passes, and under the joint complement Basic and Optimized
// apply the same C2-C4 test to a direction. So they must flag the same
// pairs, including a high/high pair that only the higher id's direction
// flags: Basic may not skip that direction as already examined.
TEST(PairSweepOracle, OneSidedBasicFlagsWhatOptimizedFlags) {
  using Keys = std::vector<std::pair<NodeId, NodeId>>;
  const auto keys = [](const DetectionReport& report) {
    Keys out;
    for (const core::PairEvidence& e : report.pairs)
      out.emplace_back(e.first, e.second);
    return out;
  };
  std::size_t flagged = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testgen::Trace trace = testgen::make_trace(seed);
    DetectorConfig cfg = testgen::config_for(seed);
    cfg.joint_complement = true;
    cfg.require_mutual = false;
    cfg.flag_accomplices = false;
    const World world(trace, cfg, 1, cfg.frequency_min, ScanCost::kStored);
    const Keys optimized =
        keys(detect::sweep_optimized(world.snapshot(), cfg));
    EXPECT_EQ(keys(detect::sweep_basic(world.snapshot(), cfg)), optimized);
    flagged += optimized.size();
  }
  EXPECT_GT(flagged, 0u);
}

// The partner hook (EpochSnapshot::on_partner_check) on a 3-matrix
// snapshot fires exactly once per passed first-side check at each of its
// three sites — every ordered (i, j) whose partner side the sweep goes on
// to examine, and every accomplice probe whose first direction passed —
// and installing it changes neither the report nor the cost counters.
TEST(PairSweepOracle, PartnerHookFiresOncePerPassedFirstSide) {
  using Calls = std::vector<std::pair<NodeId, NodeId>>;
  std::size_t accomplice_pairs = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    testgen::Trace trace = testgen::make_trace(seed);
    // A compromised honest node boosting colluder 0 and boosted back: no
    // pairwise verdict (everyone rates it well), an accomplice of 0's.
    const auto boosted = static_cast<NodeId>(trace.colluders);
    for (rating::Tick k = 0; k < 15; ++k) {
      trace.ratings.push_back({0, boosted, rating::Score::kPositive, k});
      trace.ratings.push_back({boosted, 0, rating::Score::kPositive, k});
    }
    DetectorConfig cfg = testgen::config_for(seed);
    cfg.require_mutual = true;
    cfg.flag_accomplices = true;
    const World world(trace, cfg, 3, cfg.frequency_min,
                      ScanCost::kStored);
    const RatingMatrix& m = world.combined;
    const std::size_t n = m.size();

    // Each kernel twice, without and with the hook, on the same input.
    const auto run = [&](const auto& kernel, Calls* calls) {
      detect::EpochSnapshot snap = world.snapshot();
      if (calls != nullptr)
        snap.on_partner_check = [calls](NodeId from, NodeId partner) {
          calls->emplace_back(from, partner);
        };
      return kernel(snap);
    };
    const auto expect_same = [](const DetectionReport& want,
                                const DetectionReport& got) {
      expect_same_pairs(want, got);
      EXPECT_EQ(want.cost, got.cost);
    };

    // sweep_basic: i high-reputed, j high-reputed and not already examined
    // from its own row (j > i), and i's side passed.
    Calls basic_calls;
    const auto basic = [&](const detect::EpochSnapshot& snap) {
      return detect::sweep_basic(snap, cfg);
    };
    const DetectionReport basic_report = run(basic, nullptr);
    expect_same(basic_report, run(basic, &basic_calls));
    Calls want_basic;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        double a = 0.0;
        double b = 0.0;
        util::CostCounter ignored;
        if (m.high_reputed(i) && m.high_reputed(j) &&
            basic_directional(m, cfg, i, j, a, b, ignored))
          want_basic.emplace_back(i, j);
      }
    }
    EXPECT_EQ(basic_calls, want_basic);

    // sweep_optimized: every ordered (i, j) with i high-reputed whose
    // i side passed, before n_j's C1 read.
    Calls optimized_calls;
    const auto optimized = [&](const detect::EpochSnapshot& snap) {
      return detect::sweep_optimized(snap, cfg);
    };
    const DetectionReport optimized_report = run(optimized, nullptr);
    expect_same(optimized_report, run(optimized, &optimized_calls));
    Calls want_optimized;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        util::CostCounter ignored;
        if (j != i && m.high_reputed(i) &&
            optimized_directional(m, cfg, i, j, ignored))
          want_optimized.emplace_back(i, j);
      }
    }
    EXPECT_EQ(optimized_calls, want_optimized);

    // propagate_accomplices: a probe (d, k) fires at most once, only for a
    // flagged d whose cell from k is frequent and mostly positive, and
    // every pair the exchange adds was probed from one of its ends.
    Calls accomplice_calls;
    const auto accomplices = [&](const detect::EpochSnapshot& snap) {
      DetectionReport report = basic_report;
      (void)detect::propagate_accomplices(snap, cfg, report);
      return report;
    };
    const DetectionReport full = run(accomplices, nullptr);
    expect_same(full, run(accomplices, &accomplice_calls));
    Calls sorted = accomplice_calls;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    const std::vector<NodeId> flagged = full.colluders();
    for (const auto& [d, k] : accomplice_calls) {
      EXPECT_TRUE(std::binary_search(flagged.begin(), flagged.end(), d));
      EXPECT_TRUE(core::frequency_ok(m.cell(d, k), cfg));
      EXPECT_TRUE(core::positive_fraction_ok(m.cell(d, k), cfg));
    }
    for (const core::PairEvidence& e : full.pairs) {
      if (basic_report.contains(e.first, e.second)) continue;
      ++accomplice_pairs;
      EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(),
                                     std::pair(e.first, e.second)) ||
                  std::binary_search(sorted.begin(), sorted.end(),
                                     std::pair(e.second, e.first)))
          << e.to_string();
    }
  }
  EXPECT_GT(accomplice_pairs, 0u);
}

// Matrices built without a frequency threshold carry no frequent-rater
// aggregate, so the joint complement must be recomputed from the rows on
// every path: a 3-matrix snapshot of such matrices must flag exactly what
// the 1-matrix snapshot flags, through the registry detectors.
class ThresholdlessShardsTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThresholdlessShardsTest, RegistryFlagsSameAsOneMatrix) {
  const std::uint64_t seed = GetParam();
  const testgen::Trace trace = testgen::make_trace(seed);
  DetectorConfig cfg = testgen::config_for(seed);
  cfg.joint_complement = true;
  const World one(trace, cfg, 1, 0, ScanCost::kStored);
  const World three(trace, cfg, 3, 0, ScanCost::kStored);
  for (const char* name : {"basic", "optimized"}) {
    SCOPED_TRACE(name);
    const DetectionReport want =
        detect::make_detector(name, cfg)->on_epoch(one.snapshot());
    const DetectionReport got =
        detect::make_detector(name, cfg)->on_epoch(three.snapshot());
    EXPECT_EQ(want.colluders(), got.colluders());
    expect_same_pairs(want, got);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdlessShardsTest,
                         ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace p2prep
