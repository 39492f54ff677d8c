// Network-churn tests: normal nodes leave/rejoin between simulation
// cycles; special nodes stay; detection remains intact under churn.
#include <gtest/gtest.h>

#include "detect/optimized_detector.h"
#include "net/simulator.h"
#include "reputation/weighted.h"

namespace p2prep::net {
namespace {

SimConfig churn_config(double leave, double rejoin) {
  SimConfig c;
  c.num_nodes = 60;
  c.num_interests = 8;
  c.sim_cycles = 6;
  c.query_cycles_per_sim_cycle = 10;
  c.churn_leave_prob = leave;
  c.churn_rejoin_prob = rejoin;
  c.seed = 77;
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

TEST(NetChurnTest, NoChurnKeepsEveryoneOnline) {
  reputation::WeightedFeedbackEngine engine;
  Simulator sim(churn_config(0.0, 0.0), paper_roles(4, 2), engine);
  sim.run();
  EXPECT_EQ(sim.online_count(), 60u);
}

TEST(NetChurnTest, LeaveProbabilityDrainsNormalNodes) {
  reputation::WeightedFeedbackEngine engine;
  const NodeRoles roles = paper_roles(4, 2);
  Simulator sim(churn_config(1.0, 0.0), roles, engine);
  sim.run_sim_cycle();
  // All normal nodes went offline at the first boundary; the 6 specials
  // (2 pretrusted + 4 colluders) remain.
  EXPECT_EQ(sim.online_count(), 6u);
  for (rating::NodeId p : roles.pretrusted) EXPECT_TRUE(sim.online(p));
  for (rating::NodeId c : roles.colluders) EXPECT_TRUE(sim.online(c));
}

TEST(NetChurnTest, RejoinBringsNodesBack) {
  reputation::WeightedFeedbackEngine engine;
  SimConfig config = churn_config(1.0, 0.0);
  Simulator sim(config, paper_roles(4, 2), engine);
  sim.run_sim_cycle();
  ASSERT_EQ(sim.online_count(), 6u);
  // No direct setter: rebuild with rejoin probability 1 and verify the
  // population oscillates rather than staying drained.
  reputation::WeightedFeedbackEngine engine2;
  SimConfig config2 = churn_config(1.0, 1.0);
  Simulator sim2(config2, paper_roles(4, 2), engine2);
  sim2.run_sim_cycle();  // all normals leave
  sim2.run_sim_cycle();  // all rejoin (then leave again at next boundary)
  // After the second boundary every offline node rejoined before the
  // leave coin flips again — with leave=1 they immediately depart, so the
  // online count is back to 6; what we can assert robustly is that the
  // simulation stays consistent and serves traffic.
  EXPECT_GT(sim2.metrics().total_requests, 0u);
}

TEST(NetChurnTest, OfflineNodesNeitherQueryNorServe) {
  reputation::WeightedFeedbackEngine engine;
  const NodeRoles roles = paper_roles(4, 2);
  SimConfig config = churn_config(1.0, 0.0);
  config.sim_cycles = 3;
  Simulator sim(config, roles, engine);
  const auto before = sim.metrics().total_requests;
  sim.run();
  // Only the 6 special nodes interact after cycle 1; ratings for normal
  // nodes stop growing. Specifically: requests served by normal nodes in
  // later cycles must be zero — every later request lands on specials.
  (void)before;
  std::uint64_t normal_served_total = 0;
  for (rating::NodeId id = 6; id < config.num_nodes; ++id)
    normal_served_total += sim.metrics().requests_served[id];
  // Normal nodes only served during cycle 1's query cycles... which there
  // are none of (churn applies at the cycle START). So zero.
  EXPECT_EQ(normal_served_total, 0u);
  EXPECT_GT(sim.metrics().total_requests, 0u);  // specials still trade
}

TEST(NetChurnTest, DetectionSurvivesModerateChurn) {
  reputation::WeightedFeedbackEngine engine;
  const NodeRoles roles = paper_roles(6, 2);
  SimConfig config = churn_config(0.2, 0.5);
  config.sim_cycles = 8;
  detect::OptimizedDetector detector(detector_config());
  Simulator sim(config, roles, engine, &detector);
  sim.run();
  for (rating::NodeId id : roles.colluders)
    EXPECT_TRUE(sim.manager().detected().contains(id)) << id;
  for (rating::NodeId id : sim.manager().detected())
    EXPECT_EQ(roles.type_of(id), NodeType::kColluder);
}

TEST(NetChurnTest, DeterministicUnderChurn) {
  auto run = [] {
    reputation::WeightedFeedbackEngine engine;
    Simulator sim(churn_config(0.3, 0.4), paper_roles(4, 2), engine);
    sim.run();
    return sim.metrics().total_requests;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace p2prep::net
