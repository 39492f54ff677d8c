// Manager churn: joins/leaves of DHT managers with shard handoff must
// preserve every reputation record and keep detection working.
#include <gtest/gtest.h>

#include <vector>

#include "detect/registry.h"
#include "managers/decentralized.h"
#include "rating/matrix.h"
#include "service/shard.h"
#include "tests/differential/trace_gen.h"
#include "util/rng.h"

namespace p2prep::managers {
namespace {

using rating::Rating;
using rating::Score;

DecentralizedReputationSystem::Config config(std::size_t n) {
  DecentralizedReputationSystem::Config c;
  c.num_nodes = n;
  c.detector.positive_fraction_min = 0.8;
  c.detector.complement_fraction_max = 0.2;
  c.detector.frequency_min = 20;
  c.detector.high_rep_threshold = 0.0;
  return c;
}

void feed(DecentralizedReputationSystem& sys, std::size_t n,
          std::uint64_t seed) {
  util::Rng rng(seed);
  for (int k = 0; k < 40; ++k) {
    sys.ingest({0, 1, Score::kPositive, 0});
    sys.ingest({1, 0, Score::kPositive, 0});
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 4; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      sys.ingest({rater, ratee,
                  rng.chance(ratee < 2 ? 0.0 : 0.85) ? Score::kPositive
                                                     : Score::kNegative,
                  0});
    }
  }
}

std::vector<std::int64_t> snapshot(DecentralizedReputationSystem& sys,
                                   std::size_t n) {
  std::vector<std::int64_t> reps(n);
  for (rating::NodeId id = 0; id < n; ++id) reps[id] = sys.reputation(id);
  return reps;
}

TEST(ChurnTest, JoinPreservesAllReputations) {
  DecentralizedReputationSystem sys(config(60), {0, 1, 2, 3, 4});
  feed(sys, 60, 1);
  const auto before = snapshot(sys, 60);

  const auto stats = sys.add_manager(30);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(sys.num_managers(), 6u);
  EXPECT_EQ(snapshot(sys, 60), before);
}

TEST(ChurnTest, LeavePreservesAllReputations) {
  DecentralizedReputationSystem sys(config(60), {0, 1, 2, 3, 4});
  feed(sys, 60, 2);
  const auto before = snapshot(sys, 60);

  // Pick a manager that owns at least one node so the handoff is real.
  rating::NodeId victim = rating::kInvalidNode;
  for (rating::NodeId m : {0u, 1u, 2u, 3u, 4u}) {
    for (rating::NodeId id = 0; id < 60; ++id) {
      if (sys.manager_of(id) == m) {
        victim = m;
        break;
      }
    }
    if (victim != rating::kInvalidNode) break;
  }
  ASSERT_NE(victim, rating::kInvalidNode);

  const auto stats = sys.remove_manager(victim);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->reassigned_nodes, 0u);
  EXPECT_GT(stats->transferred_ratings, 0u);
  EXPECT_EQ(sys.num_managers(), 4u);
  EXPECT_EQ(snapshot(sys, 60), before);
  // The departed manager owns nothing anymore.
  for (rating::NodeId id = 0; id < 60; ++id)
    EXPECT_NE(sys.manager_of(id), victim);
}

TEST(ChurnTest, DetectionSurvivesChurn) {
  DecentralizedReputationSystem sys(config(60), {0, 1, 2, 3, 4});
  feed(sys, 60, 3);
  sys.add_manager(40);
  sys.add_manager(41);
  sys.remove_manager(2);
  const auto outcome = sys.run_detection("optimized");
  EXPECT_TRUE(outcome.report.contains(0, 1));
}

TEST(ChurnTest, InvalidOperationsRefused) {
  DecentralizedReputationSystem sys(config(20), {0, 1});
  EXPECT_FALSE(sys.add_manager(0).has_value());    // already a manager
  EXPECT_FALSE(sys.add_manager(100).has_value());  // out of range
  EXPECT_FALSE(sys.remove_manager(7).has_value()); // not a manager
  ASSERT_TRUE(sys.remove_manager(0).has_value());
  EXPECT_FALSE(sys.remove_manager(1).has_value()); // last manager stays
}

TEST(ChurnTest, RepeatedChurnIsStable) {
  DecentralizedReputationSystem sys(config(40), {0, 1, 2});
  feed(sys, 40, 4);
  const auto before = snapshot(sys, 40);
  for (rating::NodeId id = 10; id < 20; ++id) sys.add_manager(id);
  for (rating::NodeId id = 10; id < 20; id += 2) sys.remove_manager(id);
  EXPECT_EQ(snapshot(sys, 40), before);
  // Ingest still routes correctly after churn.
  EXPECT_TRUE(sys.ingest({5, 6, Score::kPositive, 0}));
  EXPECT_EQ(sys.shard(sys.manager_of(6)).cell(6, 5).total, 1u);
}

TEST(ChurnTest, QueriesRouteCorrectlyAfterChurn) {
  DecentralizedReputationSystem sys(config(40), {0, 1, 2});
  feed(sys, 40, 5);
  sys.add_manager(25);
  for (rating::NodeId target = 0; target < 40; ++target) {
    const auto answer = sys.query_reputation(3, target);
    EXPECT_EQ(answer.manager, sys.manager_of(target));
    EXPECT_EQ(answer.reputation, sys.reputation(target));
  }
}

/// Detection on one kStored matrix filled with `window`, the reference a
/// decentralized round must reproduce.
core::DetectionReport one_matrix_detection(
    const std::vector<Rating>& window, std::size_t n,
    const core::DetectorConfig& cfg, const char* detector) {
  rating::RatingMatrix m(n, rating::ScanCost::kStored);
  m.set_frequency_threshold(cfg.frequency_min);
  for (const Rating& r : window) m.add_rating(r.ratee, r.rater, r.score);
  for (rating::NodeId i = 0; i < n; ++i)
    m.set_global_reputation(i, static_cast<double>(m.window_reputation(i)),
                            cfg.high_rep_threshold);
  return detect::make_detector(detector, cfg)
      ->on_epoch(detect::EpochSnapshot::of(m));
}

/// No manager's matrix holds a cell or the C1 flag of a node it does not
/// own.
void expect_rows_only_at_owners(const DecentralizedReputationSystem& sys) {
  for (rating::NodeId mgr = 0; mgr < sys.num_nodes(); ++mgr) {
    if (!sys.ring().contains(mgr)) continue;
    const rating::RatingMatrix& m = sys.shard(mgr);
    for (rating::NodeId i = 0; i < sys.num_nodes(); ++i) {
      if (sys.manager_of(i) == mgr) continue;
      EXPECT_EQ(m.totals(i).total, 0u) << "manager " << mgr << " node " << i;
      EXPECT_FALSE(m.high_reputed(i)) << "manager " << mgr << " node " << i;
    }
  }
}

// Seeded churn interleaved with window resets: each seed streams a
// testgen trace through a DHT of five managers while managers join and
// leave and windows roll over, and detects with Basic and Optimized in
// between. Every round must report what one kStored matrix filled with
// the same window reports, charge the same element scans and checks, and
// answer every check request; after every operation each node's row
// lives only in its owner's matrix. 40 seeds, about 0.1 s.
TEST(ChurnTest, SeededChurnMatchesOneMatrixReference) {
  std::size_t flagged = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testgen::Trace trace = testgen::make_trace(seed);
    DecentralizedReputationSystem::Config cfg;
    cfg.num_nodes = trace.n;
    cfg.detector = testgen::config_for(seed);
    DecentralizedReputationSystem sys(cfg, {0, 1, 2, 3, 4});
    util::Rng rng(seed ^ 0xc4u);
    std::vector<Rating> window;

    for (std::size_t k = 0; k < trace.ratings.size(); ++k) {
      ASSERT_TRUE(sys.ingest(trace.ratings[k]));
      window.push_back(trace.ratings[k]);
      if (rng.next_below(40) != 0) continue;
      const auto id = static_cast<rating::NodeId>(rng.next_below(trace.n));
      switch (rng.next_below(4)) {
        case 0:
          (void)sys.add_manager(id);
          break;
        case 1:
          (void)sys.remove_manager(id);
          break;
        case 2:
          sys.reset_window();
          window.clear();
          break;
        default: {
          const char* detector = rng.chance(0.5) ? "basic" : "optimized";
          SCOPED_TRACE(detector);
          const auto outcome = sys.run_detection(detector, /*suppress=*/false);
          const core::DetectionReport want = one_matrix_detection(
              window, trace.n, cfg.detector, detector);
          EXPECT_EQ(service::format_epoch_report("round", 1, outcome.report),
                    service::format_epoch_report("round", 1, want));
          EXPECT_EQ(outcome.report.cost.element_scans,
                    want.cost.element_scans);
          EXPECT_EQ(outcome.report.cost.checks, want.cost.checks);
          EXPECT_EQ(outcome.check_requests, outcome.check_responses);
          flagged += want.pairs.size();
          break;
        }
      }
      expect_rows_only_at_owners(sys);
    }
  }
  EXPECT_GT(flagged, 0u);
}

}  // namespace
}  // namespace p2prep::managers
