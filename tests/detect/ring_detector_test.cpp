// RingDetector correctness: planted 3/4/5-rings recovered with precision
// and recall 1.0 at paper-default thresholds, pair-only collusion traces
// produce zero ring flags, the joint-complement gate keeps organically
// popular cycles out, and the incremental (dirty-delta) path is
// byte-identical to a from-scratch rebuild epoch after epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/ring_detector.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "service/shard.h"
#include "util/rng.h"

namespace p2prep {
namespace {

using detect::EpochSnapshot;
using detect::RingDetector;
using rating::MatrixBackend;
using rating::NodeId;
using rating::RatingMatrix;
using rating::Score;

void add_many(RatingMatrix& m, NodeId ratee, NodeId rater, int n, Score s) {
  for (int k = 0; k < n; ++k) m.add_rating(ratee, rater, s);
}

/// Plants the directed boost cycle m0 -> m1 -> ... -> m0: each member
/// rates its successor `boosts` times positively (cell a_(succ, member)).
void plant_ring(RatingMatrix& m, const std::vector<NodeId>& members,
                int boosts = 25) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeId u = members[i];
    const NodeId v = members[(i + 1) % members.size()];
    add_many(m, v, u, boosts, Score::kPositive);
  }
}

/// C2 context: each member collects a few negatives from outside raters,
/// too infrequent (< T_N) to create boost edges of their own.
void add_outside_negatives(RatingMatrix& m,
                           const std::vector<NodeId>& members,
                           NodeId outside_rater) {
  for (const NodeId member : members)
    add_many(m, member, outside_rater, 3, Score::kNegative);
}

core::DetectionReport run(RingDetector& detector, const RatingMatrix& m) {
  core::DetectionReport report;
  detector.on_epoch(EpochSnapshot::of(m), report);
  return report;
}

core::DetectionReport run_ref(const core::DetectorConfig& cfg,
                              const RatingMatrix& m) {
  RingDetector detector(cfg);
  return run(detector, m);
}

TEST(DetectRingTest, PlantedRingsRecoveredWithPerfectPrecisionAndRecall) {
  RatingMatrix m(40, MatrixBackend::kSparse);
  const std::vector<NodeId> ring3 = {0, 1, 2};
  const std::vector<NodeId> ring4 = {10, 11, 12, 13};
  const std::vector<NodeId> ring5 = {20, 21, 22, 23, 24};
  plant_ring(m, ring3);
  plant_ring(m, ring4, 30);
  plant_ring(m, ring5, 22);
  add_outside_negatives(m, ring3, 35);
  add_outside_negatives(m, ring4, 36);
  add_outside_negatives(m, ring5, 37);
  // Honest background: node 28 is popular but no single fan is frequent.
  for (NodeId fan = 29; fan < 34; ++fan)
    add_many(m, 28, fan, 10, Score::kPositive);
  // A mutual boosting pair is a 2-SCC — the pairwise detectors' domain,
  // never a ring.
  add_many(m, 30, 31, 25, Score::kPositive);
  add_many(m, 31, 30, 25, Score::kPositive);

  core::DetectorConfig cfg;  // paper defaults: T_a=0.8 T_b=0.2 T_N=20
  RingDetector detector(cfg);
  const core::DetectionReport report = run(detector, m);

  ASSERT_EQ(report.rings.size(), 3u);  // precision 1.0: nothing else
  EXPECT_EQ(report.rings[0].members, ring3);  // recall 1.0: all planted
  EXPECT_EQ(report.rings[1].members, ring4);
  EXPECT_EQ(report.rings[2].members, ring5);

  // Evidence fields describe the planted cycles exactly.
  EXPECT_EQ(report.rings[0].min_internal_frequency, 25u);
  EXPECT_EQ(report.rings[0].internal_ratings, 75u);
  EXPECT_EQ(report.rings[0].internal_positive_fraction, 1.0);
  EXPECT_EQ(report.rings[0].outside_ratings, 9u);
  EXPECT_EQ(report.rings[0].outside_positive_fraction, 0.0);
  EXPECT_TRUE(report.rings[0].contains(1));
  EXPECT_FALSE(report.rings[0].contains(10));

  // Ring members flow into the colluder set like pair members.
  const auto colluders = report.colluders();
  const auto flagged = [&colluders](NodeId id) {
    return std::find(colluders.begin(), colluders.end(), id) !=
           colluders.end();
  };
  for (const NodeId id : {0u, 1u, 2u, 10u, 13u, 20u, 24u})
    EXPECT_TRUE(flagged(id)) << id;
  EXPECT_FALSE(flagged(28));

  EXPECT_EQ(detector.stats().rings_found, 3u);
  EXPECT_EQ(detector.stats().largest_ring, 5u);
  EXPECT_FALSE(detector.last_pass_incremental());
}

TEST(DetectRingTest, RingSizeMinAndFrequencyPeelAreConfigurable) {
  RatingMatrix m(10, MatrixBackend::kSparse);
  plant_ring(m, {0, 1, 2}, 25);       // tight ring
  plant_ring(m, {5, 6, 7, 8}, 21);    // weaker ring
  core::DetectorConfig cfg;
  // Raising the peel threshold above 21 drops the weak ring's edges.
  cfg.ring_internal_frequency_min = 24;
  const core::DetectionReport peeled = run_ref(cfg, m);
  ASSERT_EQ(peeled.rings.size(), 1u);
  EXPECT_EQ(peeled.rings[0].members, (std::vector<NodeId>{0, 1, 2}));
  // Raising ring_size_min excludes the 3-ring too.
  cfg.ring_internal_frequency_min = 0;
  cfg.ring_size_min = 4;
  const core::DetectionReport sized = run_ref(cfg, m);
  ASSERT_EQ(sized.rings.size(), 1u);
  EXPECT_EQ(sized.rings[0].members, (std::vector<NodeId>{5, 6, 7, 8}));
}

TEST(DetectRingTest, JointComplementGateRejectsOrganicallyPopularCycles) {
  RatingMatrix m(20, MatrixBackend::kSparse);
  const std::vector<NodeId> cycle = {0, 1, 2};
  plant_ring(m, cycle);
  // Genuinely popular members: plenty of positive outside opinion (each
  // fan stays under T_N, so no extra boost edges).
  for (const NodeId member : cycle)
    for (NodeId fan = 10; fan < 16; ++fan)
      add_many(m, member, fan, 10, Score::kPositive);

  core::DetectorConfig cfg;
  RingDetector gated(cfg);
  EXPECT_TRUE(run(gated, m).rings.empty());

  cfg.ring_outside_check = false;
  RingDetector ungated(cfg);
  const core::DetectionReport report = run(ungated, m);
  ASSERT_EQ(report.rings.size(), 1u);
  EXPECT_EQ(report.rings[0].members, cycle);
  EXPECT_EQ(report.rings[0].outside_ratings, 180u);
  EXPECT_EQ(report.rings[0].outside_positive_fraction, 1.0);
}

// Pairwise collusion (the paper's Fig. 3 signature) must never surface as
// rings: mutual pairs are 2-SCCs, below ring_size_min by construction.
// The organic background stays under T_N per cell so the boost graph
// contains exactly the planted pair edges.
TEST(DetectRingTest, PairOnlyTracesProduceZeroRingFlags) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    const std::size_t n = 24 + rng.next_below(25);
    const std::size_t pairs = 1 + rng.next_below(3);
    RatingMatrix matrix(n, MatrixBackend::kSparse);
    for (std::size_t p = 0; p < pairs; ++p) {
      const auto a = static_cast<NodeId>(2 * p);
      const auto b = static_cast<NodeId>(2 * p + 1);
      const int boosts = 25 + static_cast<int>(rng.next_below(31));
      add_many(matrix, b, a, boosts, Score::kPositive);
      add_many(matrix, a, b, boosts, Score::kPositive);
    }
    const core::DetectorConfig cfg;  // paper defaults (T_N = 20)
    const std::size_t organic = 400 + rng.next_below(400);
    for (std::size_t e = 0; e < organic; ++e) {
      const auto rater = static_cast<NodeId>(rng.next_below(n));
      auto ratee = static_cast<NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<NodeId>((ratee + 1) % n);
      if (matrix.cell(ratee, rater).total + 1 >= cfg.frequency_min)
        continue;  // keep every organic cell sub-threshold
      matrix.add_rating(ratee, rater,
                        rng.chance(0.8) ? Score::kPositive
                                        : Score::kNegative);
    }

    RingDetector detector(cfg);
    const core::DetectionReport report = run(detector, matrix);
    EXPECT_TRUE(report.rings.empty()) << "seed " << seed;
    EXPECT_TRUE(report.pairs.empty()) << "seed " << seed;
    // The boost graph holds exactly the planted 2-cycles.
    EXPECT_EQ(detector.edge_count(), 2 * pairs) << "seed " << seed;
  }
}

// The streaming invariant: an epoch applied from the dirty delta must be
// byte-identical (report text, edge cache size) to a from-scratch rebuild
// over the same matrix — through edge creation, ring completion and edge
// destruction.
TEST(DetectRingTest, IncrementalEpochsMatchFullRebuildByteForByte) {
  RatingMatrix live(40, MatrixBackend::kSparse);
  live.set_dirty_tracking(true);
  ASSERT_TRUE(live.dirty_tracking());

  core::DetectorConfig cfg;
  RingDetector streaming(cfg);

  std::uint64_t epoch = 0;
  const auto run_both = [&](bool expect_incremental) {
    ++epoch;
    EpochSnapshot snap = EpochSnapshot::of(live);
    snap.dirty.push_back(live.take_dirty_cells());
    core::DetectionReport inc_report;
    streaming.on_epoch(snap, inc_report);
    EXPECT_EQ(streaming.last_pass_incremental(), expect_incremental)
        << "epoch " << epoch;
    RingDetector fresh(cfg);  // unprimed: always rebuilds from the matrix
    core::DetectionReport full_report;
    fresh.on_epoch(snap, full_report);
    EXPECT_FALSE(fresh.last_pass_incremental());
    EXPECT_EQ(streaming.edge_count(), fresh.edge_count())
        << "epoch " << epoch;
    EXPECT_EQ(service::format_epoch_report("ring", epoch, inc_report),
              service::format_epoch_report("ring", epoch, full_report))
        << "epoch " << epoch;
    return inc_report;
  };

  // Epoch 1: open path 0 -> 1 -> 2 (no cycle yet). The first delta after
  // set_dirty_tracking is incomplete, so this pass is a full rebuild.
  add_many(live, 1, 0, 25, Score::kPositive);
  add_many(live, 2, 1, 25, Score::kPositive);
  add_outside_negatives(live, {0, 1, 2}, 30);
  EXPECT_TRUE(run_both(false).rings.empty());

  // Epoch 2: the closing edge 2 -> 0 arrives — ring, applied from the
  // delta alone.
  add_many(live, 0, 2, 25, Score::kPositive);
  const core::DetectionReport closed = run_both(true);
  ASSERT_EQ(closed.rings.size(), 1u);
  EXPECT_EQ(closed.rings[0].members, (std::vector<NodeId>{0, 1, 2}));

  // Epoch 3: only unrelated traffic dirtied — the ring must persist.
  add_many(live, 20, 21, 5, Score::kPositive);
  EXPECT_EQ(run_both(true).rings.size(), 1u);

  // Epoch 4: negatives poison edge 1 -> 2 below T_a; the incremental
  // pass must erase it and dissolve the ring.
  add_many(live, 2, 1, 150, Score::kNegative);
  EXPECT_TRUE(run_both(true).rings.empty());

  // Window reset invalidates the delta; the next pass must rebuild.
  live.clear_window();
  add_many(live, 1, 0, 25, Score::kPositive);
  EXPECT_TRUE(run_both(false).rings.empty());
}

}  // namespace
}  // namespace p2prep
