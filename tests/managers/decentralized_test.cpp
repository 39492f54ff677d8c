#include "managers/decentralized.h"

#include <gtest/gtest.h>

#include <vector>

#include "detect/registry.h"
#include "rating/matrix.h"
#include "service/shard.h"
#include "tests/differential/trace_gen.h"

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
  // Raw summation units: any positive window sum is "high-reputed".
  c.detector.high_rep_threshold = 0.0;
  return c;
}

Rating make(rating::NodeId rater, rating::NodeId ratee, Score s) {
  return {.rater = rater, .ratee = ratee, .score = s, .time = 0};
}

void feed_collusion(DecentralizedReputationSystem& sys, std::size_t n) {
  for (int k = 0; k < 50; ++k) {
    sys.ingest(make(0, 1, Score::kPositive));
    sys.ingest(make(1, 0, Score::kPositive));
  }
  for (rating::NodeId r = 3; r < n; ++r) {
    sys.ingest(make(r, 0, Score::kNegative));
    sys.ingest(make(r, 1, Score::kNegative));
    sys.ingest(make(r, 2, Score::kPositive));
  }
}

TEST(DecentralizedTest, EveryNodeHasAManagerOnTheRing) {
  DecentralizedReputationSystem sys(config(50));
  EXPECT_EQ(sys.num_managers(), 50u);
  for (rating::NodeId id = 0; id < 50; ++id) {
    const rating::NodeId mgr = sys.manager_of(id);
    EXPECT_LT(mgr, 50u);
    EXPECT_TRUE(sys.ring().contains(mgr));
  }
}

TEST(DecentralizedTest, PowerNodeSubsetAsManagers) {
  DecentralizedReputationSystem sys(config(50), {0, 1, 2, 3, 4});
  EXPECT_EQ(sys.num_managers(), 5u);
  for (rating::NodeId id = 0; id < 50; ++id)
    EXPECT_LT(sys.manager_of(id), 5u);
}

TEST(DecentralizedTest, IngestRoutesToCorrectShard) {
  DecentralizedReputationSystem sys(config(30));
  EXPECT_TRUE(sys.ingest(make(5, 7, Score::kPositive)));
  const rating::NodeId mgr = sys.manager_of(7);
  EXPECT_EQ(sys.shard(mgr).cell(7, 5).total, 1u);
  EXPECT_EQ(sys.reputation(7), 1);
  EXPECT_FALSE(sys.ingest(make(5, 5, Score::kPositive)));
  EXPECT_GT(sys.transport_messages(), 0u);
}

TEST(DecentralizedTest, QueryReputationRoutesAndAnswers) {
  DecentralizedReputationSystem sys(config(30));
  sys.ingest(make(5, 7, Score::kPositive));
  sys.ingest(make(6, 7, Score::kPositive));
  const auto answer = sys.query_reputation(3, 7);
  EXPECT_EQ(answer.reputation, 2);
  EXPECT_EQ(answer.manager, sys.manager_of(7));
}

// The routed query answers the window sum the oracle reputation()
// answers, before and after a window reset.
TEST(DecentralizedTest, QueryMatchesOracleAfterWindowReset) {
  DecentralizedReputationSystem sys(config(30));
  for (int k = 0; k < 5; ++k) sys.ingest(make(5, 7, Score::kPositive));
  EXPECT_EQ(sys.query_reputation(3, 7).reputation, 5);
  sys.reset_window();
  EXPECT_EQ(sys.reputation(7), 0);
  EXPECT_EQ(sys.query_reputation(3, 7).reputation, sys.reputation(7));
  sys.ingest(make(6, 7, Score::kNegative));
  EXPECT_EQ(sys.reputation(7), -1);
  EXPECT_EQ(sys.query_reputation(3, 7).reputation, sys.reputation(7));
}

TEST(DecentralizedTest, OutOfRangeRequesterGetsTheEmptyAnswer) {
  DecentralizedReputationSystem sys(config(30));
  sys.ingest(make(5, 7, Score::kPositive));
  for (const rating::NodeId requester :
       {rating::NodeId{30}, rating::NodeId{31}, rating::kInvalidNode}) {
    const auto answer = sys.query_reputation(requester, 7);
    EXPECT_EQ(answer.reputation, 0) << requester;
    EXPECT_EQ(answer.hops, 0u) << requester;
    EXPECT_EQ(answer.manager, rating::kInvalidNode) << requester;
  }
  const auto valid = sys.query_reputation(29, 7);
  EXPECT_EQ(valid.reputation, 1);
  EXPECT_EQ(valid.manager, sys.manager_of(7));
}

TEST(DecentralizedTest, DetectsCollusionAcrossShards) {
  DecentralizedReputationSystem sys(config(30));
  feed_collusion(sys, 30);
  const auto outcome = sys.run_detection("optimized");
  EXPECT_TRUE(outcome.report.contains(0, 1));
  EXPECT_TRUE(sys.detected().contains(0));
  EXPECT_TRUE(sys.detected().contains(1));
  // Suppressed nodes answer 0 to queries.
  EXPECT_EQ(sys.query_reputation(5, 0).reputation, 0);
  EXPECT_EQ(sys.reputation(0), 0);
}

TEST(DecentralizedTest, BasicAndOptimizedAgree) {
  DecentralizedReputationSystem a(config(40));
  DecentralizedReputationSystem b(config(40));
  feed_collusion(a, 40);
  feed_collusion(b, 40);
  const auto ra = a.run_detection("basic");
  const auto rb = b.run_detection("optimized");
  ASSERT_EQ(ra.report.pairs.size(), rb.report.pairs.size());
  for (std::size_t i = 0; i < ra.report.pairs.size(); ++i) {
    EXPECT_EQ(ra.report.pairs[i].first, rb.report.pairs[i].first);
    EXPECT_EQ(ra.report.pairs[i].second, rb.report.pairs[i].second);
  }
}

TEST(DecentralizedTest, AgreesWithCentralizedDetection) {
  // The decentralized protocol must report exactly what the same detector
  // reports on one matrix built from the union of all shards — pairs and
  // every evidence field — at any manager count: one manager, a few, or a
  // flat DHT where every node manages itself. The seeds sweep the
  // joint-complement, mutuality and accomplice settings (testgen).
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const testgen::Trace trace = testgen::make_trace(seed);
    DecentralizedReputationSystem::Config cfg;
    cfg.num_nodes = trace.n;
    cfg.detector = testgen::config_for(seed);

    rating::RatingMatrix matrix(trace.n);
    for (const Rating& r : trace.ratings)
      matrix.add_rating(r.ratee, r.rater, r.score);
    for (rating::NodeId i = 0; i < trace.n; ++i)
      matrix.set_global_reputation(
          i, static_cast<double>(matrix.window_reputation(i)),
          cfg.detector.high_rep_threshold);

    for (const std::size_t managers : {std::size_t{1}, std::size_t{7},
                                       trace.n}) {
      std::vector<rating::NodeId> manager_ids(managers);
      for (rating::NodeId id = 0; id < managers; ++id) manager_ids[id] = id;
      for (const char* detector : {"basic", "optimized"}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " managers "
                                          << managers << ' ' << detector);
        DecentralizedReputationSystem sys(cfg, manager_ids);
        for (const Rating& r : trace.ratings) (void)sys.ingest(r);
        const auto central = detect::make_detector(detector, cfg.detector)
                                 ->on_epoch(detect::EpochSnapshot::of(matrix));
        const auto dist = sys.run_detection(detector);
        EXPECT_EQ(service::format_epoch_report("round", 1, dist.report),
                  service::format_epoch_report("round", 1, central));
      }
    }
  }
}

TEST(DecentralizedTest, CrossManagerChecksGenerateMessages) {
  DecentralizedReputationSystem sys(config(30));
  feed_collusion(sys, 30);
  const auto outcome = sys.run_detection("optimized");
  // Nodes 0 and 1 almost surely hash to different managers among 30;
  // either way the protocol reports consistent accounting.
  if (sys.manager_of(0) != sys.manager_of(1)) {
    EXPECT_GT(outcome.check_requests, 0u);
    EXPECT_EQ(outcome.check_requests, outcome.check_responses);
  } else {
    EXPECT_GT(outcome.local_checks, 0u);
  }
  EXPECT_GT(outcome.report.cost.messages + outcome.local_checks, 0u);
}

TEST(DecentralizedTest, WindowResetClearsDetectionInput) {
  DecentralizedReputationSystem sys(config(30));
  feed_collusion(sys, 30);
  sys.reset_window();
  const auto outcome = sys.run_detection("basic");
  EXPECT_TRUE(outcome.report.pairs.empty());
}

TEST(DecentralizedTest, RejectsOutOfRangeRatings) {
  DecentralizedReputationSystem sys(config(10));
  EXPECT_FALSE(sys.ingest(make(0, 10, Score::kPositive)));
  EXPECT_FALSE(sys.ingest(make(10, 0, Score::kPositive)));
}

}  // namespace
}  // namespace p2prep::managers
