#include "net/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "detect/optimized_detector.h"
#include "reputation/weighted.h"
#include "tests/detect/capturing_detector.h"

namespace p2prep::net {
namespace {

SimConfig small_config() {
  SimConfig c;
  c.num_nodes = 60;
  c.num_interests = 8;
  c.sim_cycles = 3;
  c.query_cycles_per_sim_cycle = 10;
  c.seed = 42;
  return c;
}

/// Detector thresholds for simulation workloads (see DESIGN.md: T_b must
/// sit between colluders' service quality and normal nodes' 0.8).
core::DetectorConfig sim_detector_config() {
  core::DetectorConfig c;
  c.positive_fraction_min = 0.9;
  c.complement_fraction_max = 0.7;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  return c;
}

TEST(SimulatorTest, RunsAndProducesTraffic) {
  reputation::WeightedFeedbackEngine engine;
  Simulator sim(small_config(), paper_roles(4, 2), engine);
  sim.run();
  EXPECT_EQ(sim.sim_cycles_run(), 3u);
  EXPECT_GT(sim.metrics().total_requests, 0u);
  EXPECT_GT(sim.metrics().authentic_files, 0u);
  EXPECT_EQ(sim.metrics().total_requests,
            sim.metrics().authentic_files + sim.metrics().inauthentic_files);
}

TEST(SimulatorTest, RolesConfigureNodeBehaviour) {
  reputation::WeightedFeedbackEngine engine;
  const SimConfig c = small_config();
  Simulator sim(c, paper_roles(4, 2), engine);
  EXPECT_EQ(sim.type_of(0), NodeType::kPretrusted);
  EXPECT_EQ(sim.type_of(2), NodeType::kColluder);
  EXPECT_EQ(sim.type_of(30), NodeType::kNormal);
  EXPECT_DOUBLE_EQ(sim.good_prob_of(0), c.pretrusted_good_prob);
  EXPECT_DOUBLE_EQ(sim.good_prob_of(2), c.colluder_good_prob);
  EXPECT_DOUBLE_EQ(sim.good_prob_of(30), c.normal_good_prob);
  for (rating::NodeId id = 0; id < c.num_nodes; ++id) {
    EXPECT_GE(sim.active_prob_of(id), c.min_active_prob);
    EXPECT_LE(sim.active_prob_of(id), c.max_active_prob);
  }
}

TEST(SimulatorTest, CollusionRatingsInjectedPerQueryCycle) {
  reputation::WeightedFeedbackEngine engine;
  const SimConfig c = small_config();
  const NodeRoles roles = paper_roles(4, 2);  // 2 collusion edges
  Simulator sim(c, roles, engine);
  sim.run_sim_cycle();
  // 2 edges * 2 directions * 10 ratings * 10 query cycles.
  EXPECT_EQ(sim.metrics().collusion_ratings, 2u * 2u * 10u * 10u);
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  auto run = [] {
    reputation::WeightedFeedbackEngine engine;
    Simulator sim(small_config(), paper_roles(4, 2), engine);
    sim.run();
    return std::vector<double>(engine.reputations().begin(),
                               engine.reputations().end());
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    reputation::WeightedFeedbackEngine engine;
    SimConfig c = small_config();
    c.seed = seed;
    Simulator sim(c, paper_roles(4, 2), engine);
    sim.run();
    return sim.metrics().total_requests;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(SimulatorTest, CollusionBoostsColluderReputationWithoutDetection) {
  // The Fig. 5 effect: with B = 0.6, colluders end up with the highest
  // reputations in the system.
  reputation::WeightedFeedbackEngine engine;
  SimConfig c = small_config();
  c.colluder_good_prob = 0.6;
  c.sim_cycles = 5;
  const NodeRoles roles = paper_roles(4, 2);
  Simulator sim(c, roles, engine);
  sim.run();
  double colluder_avg = 0.0;
  for (rating::NodeId id : roles.colluders)
    colluder_avg += engine.reputation(id);
  colluder_avg /= static_cast<double>(roles.colluders.size());
  double normal_avg = 0.0;
  std::size_t normals = 0;
  for (rating::NodeId id = 10; id < c.num_nodes; ++id) {
    normal_avg += engine.reputation(id);
    ++normals;
  }
  normal_avg /= static_cast<double>(normals);
  EXPECT_GT(colluder_avg, normal_avg * 2.0);
}

TEST(SimulatorTest, DetectorSuppressesColluders) {
  // The Fig. 8/10 effect: with detection attached, all colluders end at 0.
  reputation::WeightedFeedbackEngine engine;
  SimConfig c = small_config();
  c.sim_cycles = 5;
  const NodeRoles roles = paper_roles(4, 2);
  detect::OptimizedDetector detector(sim_detector_config());
  Simulator sim(c, roles, engine, &detector);
  sim.run();
  for (rating::NodeId id : roles.colluders)
    EXPECT_EQ(engine.reputation(id), 0.0) << "colluder " << id;
  EXPECT_GT(sim.detections(), 0u);
  EXPECT_GT(sim.detection_cost().total(), 0u);
  // Pretrusted nodes (good service) survive detection.
  for (rating::NodeId id : roles.pretrusted)
    EXPECT_TRUE(sim.manager().detected().find(id) ==
                sim.manager().detected().end());
}

TEST(SimulatorTest, DetectionReducesColluderTraffic) {
  SimConfig c = small_config();
  c.sim_cycles = 6;
  const NodeRoles roles = paper_roles(8, 2);

  reputation::WeightedFeedbackEngine baseline_engine;
  Simulator baseline(c, roles, baseline_engine);
  baseline.run();

  reputation::WeightedFeedbackEngine protected_engine;
  detect::OptimizedDetector detector(sim_detector_config());
  Simulator protected_sim(c, roles, protected_engine, &detector);
  protected_sim.run();

  EXPECT_LT(protected_sim.metrics().percent_to_colluders(),
            baseline.metrics().percent_to_colluders());
}

TEST(SimulatorTest, CapacityBoundsPerNodeServiceLoad) {
  reputation::WeightedFeedbackEngine engine;
  SimConfig c = small_config();
  c.node_capacity = 2;
  c.sim_cycles = 1;
  Simulator sim(c, paper_roles(4, 2), engine);
  sim.run();
  // Per query cycle each node serves at most `capacity` requests:
  // 10 query cycles * 2 = 20 max.
  for (std::uint64_t served : sim.metrics().requests_served)
    EXPECT_LE(served, 20u);
}

TEST(SimulatorTest, RequestsGoToClusterMembersOnly) {
  reputation::WeightedFeedbackEngine engine;
  const SimConfig c = small_config();
  detect::testing::CapturingDetector capture;
  Simulator sim(c, paper_roles(4, 2), engine, &capture);
  sim.run_sim_cycle();
  // Every rating in the cycle's window connects a client to a server
  // sharing at least one interest.
  ASSERT_FALSE(capture.cells().empty());
  for (const auto& [server, client, stats] : capture.cells()) {
    // Collusion partners rate each other regardless of interest.
    const bool partners = std::any_of(
        sim.roles().collusion_edges.begin(), sim.roles().collusion_edges.end(),
        [client, server](const auto& edge) {
          return (edge.first == client && edge.second == server) ||
                 (edge.second == client && edge.first == server);
        });
    if (partners) continue;
    bool shared = false;
    for (InterestId cat : sim.overlay().interests_of(client)) {
      if (sim.overlay().has_interest(server, cat)) shared = true;
    }
    EXPECT_TRUE(shared) << "client " << client << " rated non-neighbor "
                        << server;
  }
}

}  // namespace
}  // namespace p2prep::net
