#include "managers/latency.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace p2prep::managers {
namespace {

using rating::Rating;
using rating::Score;

DecentralizedReputationSystem make_system() {
  DecentralizedReputationSystem::Config c;
  c.num_nodes = 60;
  c.detector.positive_fraction_min = 0.8;
  c.detector.complement_fraction_max = 0.2;
  c.detector.frequency_min = 20;
  c.detector.high_rep_threshold = 0.0;
  DecentralizedReputationSystem sys(c);

  // Three colluding pairs spread across managers plus organic background.
  util::Rng rng(2026);
  for (const auto& [a, b] : {std::pair<rating::NodeId, rating::NodeId>{0, 1},
                             {10, 11},
                             {20, 21}}) {
    for (int k = 0; k < 40; ++k) {
      sys.ingest({a, b, Score::kPositive, 0});
      sys.ingest({b, a, Score::kPositive, 0});
    }
  }
  for (rating::NodeId rater = 0; rater < 60; ++rater) {
    for (int k = 0; k < 4; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(60));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % 60);
      const bool colluder = ratee <= 1 || (ratee >= 10 && ratee <= 11) ||
                            (ratee >= 20 && ratee <= 21);
      sys.ingest({rater, ratee,
                  rng.chance(colluder ? 0.0 : 0.85) ? Score::kPositive
                                                    : Score::kNegative,
                  0});
    }
  }
  return sys;
}

TEST(LatencyTest, MeasurementDoesNotPerturbSystem) {
  auto sys = make_system();
  const auto latency = measure_detection_round(
      sys, "optimized", LatencyModel{});
  EXPECT_TRUE(sys.detected().empty());  // suppress=false inside
  // The real detection afterwards still flags all pairs.
  const auto outcome = sys.run_detection("optimized");
  EXPECT_EQ(outcome.report.pairs.size(), 3u);
  (void)latency;
}

TEST(LatencyTest, CrossChecksProduceLatency) {
  auto sys = make_system();
  const auto latency = measure_detection_round(
      sys, "optimized", LatencyModel{});
  // With 60 managers the pair endpoints almost surely live on different
  // managers; accounting must be internally consistent either way.
  if (latency.cross_checks > 0) {
    EXPECT_GT(latency.completion_ms, 0.0);
    EXPECT_GT(latency.avg_check_rtt_ms, LatencyModel{}.per_hop_ms);
    EXPECT_GE(latency.messages, latency.cross_checks * 2);  // >= 1 hop + resp
    EXPECT_EQ(latency.events, latency.cross_checks);
  } else {
    EXPECT_EQ(latency.completion_ms, 0.0);
  }
}

TEST(LatencyTest, PipelinedNoSlowerThanSequential) {
  auto sys = make_system();
  const LatencyModel model{.per_hop_ms = 25.0, .jitter_ms = 5.0, .seed = 9};
  const auto pipelined = measure_detection_round(
      sys, "optimized", model, /*pipelined=*/true);
  const auto sequential = measure_detection_round(
      sys, "optimized", model, /*pipelined=*/false);
  EXPECT_LE(pipelined.completion_ms, sequential.completion_ms + 1e-9);
  EXPECT_EQ(pipelined.cross_checks, sequential.cross_checks);
  EXPECT_EQ(pipelined.messages, sequential.messages);
}

TEST(LatencyTest, DeterministicForSeed) {
  auto sys1 = make_system();
  auto sys2 = make_system();
  const LatencyModel model{.per_hop_ms = 20.0, .jitter_ms = 10.0, .seed = 4};
  const auto a = measure_detection_round(sys1, "basic", model);
  const auto b = measure_detection_round(sys2, "basic", model);
  EXPECT_DOUBLE_EQ(a.completion_ms, b.completion_ms);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(LatencyTest, ZeroJitterGivesExactHopMultiples) {
  auto sys = make_system();
  const LatencyModel model{.per_hop_ms = 10.0, .jitter_ms = 0.0, .seed = 1};
  const auto latency = measure_detection_round(sys, "optimized", model);
  if (latency.cross_checks > 0) {
    // Every RTT is hops*10 + 10; the average is a multiple of 10.
    const double rem =
        std::fmod(latency.avg_check_rtt_ms * latency.cross_checks, 10.0);
    EXPECT_NEAR(std::min(rem, 10.0 - rem), 0.0, 1e-6);
  }
}

}  // namespace
}  // namespace p2prep::managers
