#include "managers/centralized.h"

#include <gtest/gtest.h>

#include <chrono>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "detect/ring_detector.h"
#include "reputation/summation.h"
#include "util/rng.h"

namespace p2prep::managers {
namespace {

using rating::Rating;
using rating::Score;

core::DetectorConfig config() {
  core::DetectorConfig c;
  c.positive_fraction_min = 0.8;
  c.complement_fraction_max = 0.2;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  return c;
}

Rating make(rating::NodeId rater, rating::NodeId ratee, Score s) {
  return {.rater = rater, .ratee = ratee, .score = s, .time = 0};
}

/// Colluders 0/1 bombard each other; crowd 3..n rates them negatively and
/// honest node 2 positively.
void feed_collusion(CentralizedManager& mgr, std::size_t n) {
  for (int k = 0; k < 50; ++k) {
    mgr.ingest(make(0, 1, Score::kPositive));
    mgr.ingest(make(1, 0, Score::kPositive));
  }
  for (rating::NodeId r = 3; r < n; ++r) {
    mgr.ingest(make(r, 0, Score::kNegative));
    mgr.ingest(make(r, 1, Score::kNegative));
    mgr.ingest(make(r, 2, Score::kPositive));
  }
}

TEST(CentralizedManagerTest, IngestFeedsStoreAndEngine) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(10, engine, config());
  EXPECT_TRUE(mgr.ingest(make(0, 1, Score::kPositive)));
  EXPECT_EQ(mgr.matrix().totals(1).total, 1u);
  EXPECT_EQ(engine.raw_sum(1), 1);
  EXPECT_FALSE(mgr.ingest(make(0, 0, Score::kPositive)));  // self-rating
  EXPECT_EQ(mgr.matrix().totals(0).total, 0u);
}

TEST(CentralizedManagerTest, SnapshotReflectsEngineReputations) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(10, engine, config());
  feed_collusion(mgr, 10);
  mgr.update_reputations();
  const rating::RatingMatrix& m = mgr.matrix();
  EXPECT_EQ(m.size(), 10u);
  EXPECT_EQ(m.cell(1, 0).total, 50u);
  // Node 2 got all the crowd's positives: high-reputed after normalization.
  EXPECT_TRUE(m.high_reputed(2));
}

TEST(CentralizedManagerTest, DetectionFlagsAndSuppressesColluders) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(20, engine, config());
  feed_collusion(mgr, 20);
  mgr.update_reputations();
  ASSERT_GT(engine.reputation(0), 0.05);  // colluders start high-reputed

  detect::OptimizedDetector detector(config());
  const core::DetectionReport report = mgr.run_detection(detector);
  EXPECT_TRUE(report.contains(0, 1));
  EXPECT_TRUE(mgr.detected().contains(0));
  EXPECT_TRUE(mgr.detected().contains(1));
  // Suppression takes effect immediately.
  EXPECT_EQ(engine.reputation(0), 0.0);
  EXPECT_EQ(engine.reputation(1), 0.0);
  EXPECT_GT(engine.reputation(2), 0.0);
}

TEST(CentralizedManagerTest, WindowResetClearsPairCounters) {
  reputation::SummationEngine engine;
  CentralizedManager mgr(20, engine, config());
  feed_collusion(mgr, 20);
  mgr.update_reputations();
  mgr.reset_window();
  detect::OptimizedDetector detector(config());
  // No ratings in the new window: nothing to detect.
  const auto report = mgr.run_detection(detector);
  EXPECT_TRUE(report.pairs.empty());
}

TEST(CentralizedManagerTest, BasicAndOptimizedAgreeThroughManager) {
  reputation::SummationEngine e1;
  reputation::SummationEngine e2;
  CentralizedManager m1(20, e1, config());
  CentralizedManager m2(20, e2, config());
  feed_collusion(m1, 20);
  feed_collusion(m2, 20);
  m1.update_reputations();
  m2.update_reputations();
  detect::BasicDetector basic(config());
  detect::OptimizedDetector optimized(config());
  const auto rb = m1.run_detection(basic);
  const auto ro = m2.run_detection(optimized);
  ASSERT_EQ(rb.pairs.size(), ro.pairs.size());
  for (std::size_t i = 0; i < rb.pairs.size(); ++i) {
    EXPECT_EQ(rb.pairs[i].first, ro.pairs[i].first);
    EXPECT_EQ(rb.pairs[i].second, ro.pairs[i].second);
  }
}

// The paper's Overstock scale: 100,000 nodes and a few thousand ratings.
// The manager's matrix stores only the rated cells, where storing all n
// cells of every row would take dense_footprint_bytes(100000), ~160 GB;
// its row scans still charge the paper's n cells, and the planted pair is
// flagged at once.
TEST(CentralizedManagerTest, PaperScaleSnapshotIsSparse) {
  constexpr std::size_t kN = 100'000;
  constexpr rating::NodeId kA = 70'000;
  constexpr rating::NodeId kB = 70'001;
  reputation::SummationEngine engine;
  core::DetectorConfig cfg = config();
  // T_R filters on raw sums: the pair's ~40 each pass, an organic node's
  // few ratings do not.
  cfg.high_rep_threshold = 10;
  CentralizedManager mgr(kN, engine, cfg);
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(mgr.ingest(make(kA, kB, Score::kPositive)));
    ASSERT_TRUE(mgr.ingest(make(kB, kA, Score::kPositive)));
  }
  util::Rng rng(kN);
  const auto node = [&rng] {
    return static_cast<rating::NodeId>(rng.next_below(kN));
  };
  for (int k = 0; k < 10; ++k) {
    mgr.ingest(make(node(), kA, Score::kNegative));
    mgr.ingest(make(node(), kB, Score::kNegative));
  }
  for (int k = 0; k < 3000; ++k) {
    const rating::NodeId rater = node();
    const rating::NodeId ratee = node();
    if (rater == ratee) continue;
    mgr.ingest(make(rater, ratee,
                    rng.chance(0.85) ? Score::kPositive : Score::kNegative));
  }
  mgr.update_reputations();

  const rating::RatingMatrix& matrix = mgr.matrix();
  EXPECT_EQ(matrix.scan_cost(), rating::ScanCost::kFullRow);
  EXPECT_EQ(matrix.high_reputed_count(), 2u);
  EXPECT_EQ(matrix.stored_cells(kA), kN);
  // An 8-byte slot per node plus, for the ~3,000 rated rows, a 48-byte
  // header and 8 bytes a cell (with growth slack): about 1 MB.
  EXPECT_LT(matrix.approx_memory_bytes(), 2'000'000u);
  EXPECT_GT(rating::RatingMatrix::dense_footprint_bytes(kN),
            std::size_t{100'000} * matrix.approx_memory_bytes());

  detect::OptimizedDetector detector(cfg);
  const auto start = std::chrono::steady_clock::now();
  const core::DetectionReport report = mgr.run_detection(detector);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(report.contains(kA, kB));
  EXPECT_EQ(report.pairs.size(), 1u);
  EXPECT_LT(took.count(), 1.0);
}

// Suppression covers ring members as well as pair members: a planted
// directed 3-ring 0 -> 1 -> 2 -> 0 under the ring detector ends with every
// member recorded and its engine reputation reset.
TEST(CentralizedManagerTest, RingMembersAreSuppressed) {
  constexpr std::size_t kN = 40;
  reputation::SummationEngine engine(kN, /*normalize=*/false);
  core::DetectorConfig cfg;  // paper defaults: T_a=0.8 T_b=0.2 T_N=20
  CentralizedManager mgr(kN, engine, cfg);
  const std::vector<rating::NodeId> ring = {0, 1, 2};
  for (std::size_t i = 0; i < ring.size(); ++i) {
    // Each member boosts its successor, too often to be organic...
    for (int k = 0; k < 25; ++k)
      ASSERT_TRUE(mgr.ingest(
          make(ring[i], ring[(i + 1) % ring.size()], Score::kPositive)));
    // ...while an outside rater's few negatives give C2 its context.
    for (int k = 0; k < 3; ++k)
      ASSERT_TRUE(mgr.ingest(make(35, ring[i], Score::kNegative)));
  }
  mgr.update_reputations();
  for (const rating::NodeId id : ring) ASSERT_GT(engine.raw_sum(id), 0);

  detect::RingDetector detector(cfg);
  const core::DetectionReport report = mgr.run_detection(detector);
  ASSERT_EQ(report.rings.size(), 1u);
  EXPECT_EQ(report.rings[0].members, ring);
  EXPECT_TRUE(report.pairs.empty());
  for (const rating::NodeId id : ring) {
    EXPECT_TRUE(mgr.detected().contains(id)) << id;
    EXPECT_EQ(engine.raw_sum(id), 0) << id;
    EXPECT_EQ(engine.reputation(id), 0.0) << id;
  }
  EXPECT_EQ(mgr.detected().size(), ring.size());
}

// A shard's manager applies only the verdicts for nodes its partition
// owns (an id past the key space is nobody's), but re-publishes whenever
// the service-wide list is non-empty.
TEST(CentralizedManagerTest, ApplyVerdictsSkipsNodesOfOtherPartitions) {
  constexpr std::size_t kN = 10;
  // Partition 0 owns the even nodes, partition 1 the odd ones.
  std::vector<std::uint32_t> owner(kN);
  for (rating::NodeId i = 0; i < kN; ++i) owner[i] = i % 2;
  const auto index = std::make_shared<const rating::RowIndex>(owner, 2);
  reputation::SummationEngine engine(index, 0, /*normalize=*/false);
  CentralizedManager mgr(index, 0, engine, config());
  ASSERT_TRUE(mgr.ingest(make(1, 4, Score::kPositive)));
  ASSERT_FALSE(mgr.ingest(make(4, 1, Score::kPositive)));  // not owned
  mgr.update_reputations();
  ASSERT_EQ(engine.raw_sum(4), 1);

  const std::vector<rating::NodeId> flagged = {3, 4, rating::kInvalidNode};
  mgr.apply_verdicts(flagged);
  EXPECT_TRUE(mgr.detected().contains(4));
  EXPECT_FALSE(mgr.detected().contains(3));
  EXPECT_EQ(engine.raw_sum(4), 0);
  EXPECT_FALSE(mgr.matrix().high_reputed(4));
}

}  // namespace
}  // namespace p2prep::managers
