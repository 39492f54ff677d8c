// Attack-model tests: Sybil boosting (mutual and one-directional) and
// traitorous behaviour switches — the threat extensions beyond the paper's
// pairwise collusion (its stated future work).
#include <gtest/gtest.h>

#include "detect/optimized_detector.h"
#include "net/simulator.h"
#include "reputation/weighted.h"

namespace p2prep::net {
namespace {

SimConfig small_config() {
  SimConfig c;
  c.num_nodes = 60;
  c.num_interests = 8;
  c.sim_cycles = 5;
  c.query_cycles_per_sim_cycle = 10;
  c.seed = 99;
  return c;
}

core::DetectorConfig detector_config() {
  core::DetectorConfig c;
  c.positive_fraction_min = 0.9;
  c.complement_fraction_max = 0.7;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  return c;
}

TEST(SybilRolesTest, MutualAndOneWayStructures) {
  const NodeRoles mutual = sybil_roles(2, 3, /*mutual=*/true);
  EXPECT_EQ(mutual.collusion_edges.size(), 6u);
  EXPECT_TRUE(mutual.boost_edges.empty());
  EXPECT_EQ(mutual.colluders.size(), 2u + 6u);  // targets + sybils

  const NodeRoles oneway = sybil_roles(2, 3, /*mutual=*/false);
  EXPECT_TRUE(oneway.collusion_edges.empty());
  EXPECT_EQ(oneway.boost_edges.size(), 6u);
  // Targets take ids right after the pretrusted nodes (0-based 3, 4).
  EXPECT_EQ(oneway.boost_edges[0].second, 3u);
  EXPECT_EQ(oneway.boost_edges[3].second, 4u);
}

TEST(SybilAttackTest, OneWayBoostInflatesTarget) {
  const SimConfig config = small_config();
  const NodeRoles roles = sybil_roles(1, 4, /*mutual=*/false);
  reputation::WeightedFeedbackEngine engine;
  Simulator sim(config, roles, engine);
  sim.run();
  // Target (id 3) collects 4 sybils * 10 ratings * 10 qc * 5 cycles of
  // positive feedback: far above any normal node.
  double normal_max = 0.0;
  for (rating::NodeId id = 8; id < config.num_nodes; ++id)
    normal_max = std::max(normal_max, engine.reputation(id));
  EXPECT_GT(engine.reputation(3), normal_max);
}

TEST(SybilAttackTest, MutualRingCaughtByDefaultDetector) {
  const SimConfig config = small_config();
  const NodeRoles roles = sybil_roles(1, 4, /*mutual=*/true);
  reputation::WeightedFeedbackEngine engine;
  detect::OptimizedDetector detector(detector_config());
  Simulator sim(config, roles, engine, &detector);
  sim.run();
  EXPECT_TRUE(sim.manager().detected().contains(3));  // target zeroed
  EXPECT_DOUBLE_EQ(engine.reputation(3), 0.0);
}

TEST(SybilAttackTest, OneWayBoostEvadesMutualPredicate) {
  // The documented limitation: with require_mutual (the paper's method),
  // a one-directional Sybil boost is never flagged.
  const SimConfig config = small_config();
  const NodeRoles roles = sybil_roles(1, 4, /*mutual=*/false);
  reputation::WeightedFeedbackEngine engine;
  detect::OptimizedDetector detector(detector_config());
  Simulator sim(config, roles, engine, &detector);
  sim.run();
  EXPECT_FALSE(sim.manager().detected().contains(3));
  EXPECT_GT(engine.reputation(3), 0.0);
}

TEST(SybilAttackTest, OneSidedModeCatchesOneWayBoost) {
  const SimConfig config = small_config();
  const NodeRoles roles = sybil_roles(1, 4, /*mutual=*/false);
  reputation::WeightedFeedbackEngine engine;
  core::DetectorConfig dc = detector_config();
  dc.require_mutual = false;
  detect::OptimizedDetector detector(dc);
  Simulator sim(config, roles, engine, &detector);
  sim.run();
  EXPECT_TRUE(sim.manager().detected().contains(3));
  EXPECT_DOUBLE_EQ(engine.reputation(3), 0.0);
  // No honest node is collateral damage in this workload.
  for (rating::NodeId id : sim.manager().detected())
    EXPECT_EQ(roles.type_of(id), NodeType::kColluder);
}

TEST(TraitorRolesTest, Structure) {
  const NodeRoles roles = traitor_roles(4, 2);
  EXPECT_EQ(roles.pretrusted.size(), 2u);
  EXPECT_EQ(roles.traitors, (std::vector<rating::NodeId>{2, 3, 4, 5}));
  EXPECT_TRUE(roles.collusion_edges.empty());
  EXPECT_TRUE(roles.colluders.empty());
}

TEST(TraitorAttackTest, BehaviourSwitchesAtDefectCycle) {
  SimConfig config = small_config();
  config.sim_cycles = 6;
  config.traitor_defect_cycle = 3;
  config.traitor_good_prob_after = 0.0;
  const NodeRoles roles = traitor_roles(3, 2);
  reputation::WeightedFeedbackEngine engine;
  Simulator sim(config, roles, engine);

  for (std::size_t c = 0; c < 3; ++c) sim.run_sim_cycle();
  EXPECT_DOUBLE_EQ(sim.good_prob_of(roles.traitors[0]),
                   config.normal_good_prob);
  sim.run_sim_cycle();  // cycle index 3: defection applies at its start
  EXPECT_DOUBLE_EQ(sim.good_prob_of(roles.traitors[0]), 0.0);
}

TEST(TraitorAttackTest, NoFalseCollusionDetection) {
  // Traitors degrade service but never collude: the detector must stay
  // silent (reputation decay is the engine's job, not detection's).
  SimConfig config = small_config();
  config.sim_cycles = 8;
  config.traitor_defect_cycle = 4;
  const NodeRoles roles = traitor_roles(4, 2);
  reputation::WeightedFeedbackEngine engine;
  detect::OptimizedDetector detector(detector_config());
  Simulator sim(config, roles, engine, &detector);
  sim.run();
  EXPECT_TRUE(sim.manager().detected().empty());
}

}  // namespace
}  // namespace p2prep::net
