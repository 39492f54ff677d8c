// Whitewashing: detected colluders abandon their identities and resume
// under fresh ones.
#include <gtest/gtest.h>

#include "detect/optimized_detector.h"
#include "net/simulator.h"
#include "reputation/weighted.h"

namespace p2prep::net {
namespace {

SimConfig ww_config() {
  SimConfig c;
  c.num_nodes = 80;
  c.num_interests = 8;
  c.sim_cycles = 6;
  c.query_cycles_per_sim_cycle = 10;
  c.whitewash_on_detection = true;
  c.seed = 404;
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

TEST(WhitewashTest, IdentitiesRotateAfterDetection) {
  reputation::WeightedFeedbackEngine engine;
  const NodeRoles original = paper_roles(4, 2);
  detect::OptimizedDetector detector(detector_config());
  Simulator sim(ww_config(), original, engine, &detector);
  sim.run_sim_cycle();  // colluders detected and whitewashed
  EXPECT_EQ(sim.whitewash_count(), 4u);
  // The live collusion edges no longer involve the burned ids.
  for (rating::NodeId burned : original.colluders) {
    for (const auto& [a, b] : sim.roles().collusion_edges) {
      EXPECT_NE(a, burned);
      EXPECT_NE(b, burned);
    }
    EXPECT_EQ(sim.type_of(burned), NodeType::kNormal);
    EXPECT_FALSE(sim.online(burned));
  }
  // Fresh identities came from the top of the id space.
  for (const auto& [a, b] : sim.roles().collusion_edges) {
    EXPECT_GE(a, 70u);
    EXPECT_GE(b, 70u);
    EXPECT_EQ(sim.type_of(a), NodeType::kColluder);
  }
}

TEST(WhitewashTest, EachGenerationIsReDetected) {
  reputation::WeightedFeedbackEngine engine;
  detect::OptimizedDetector detector(detector_config());
  Simulator sim(ww_config(), paper_roles(4, 2), engine, &detector);
  sim.run();
  // 4 colluders whitewashed every cycle they are caught; over 6 cycles
  // many generations burn through.
  EXPECT_GE(sim.whitewash_count(), 3u * 4u);
  // Every currently-live colluder generation is freshly suppressible:
  // traffic share stays low despite the identity churn.
  EXPECT_LT(sim.metrics().percent_to_colluders(), 10.0);
}

TEST(WhitewashTest, PoolExhaustionStopsRotation) {
  SimConfig config = ww_config();
  config.num_nodes = 16;  // tiny pool: 2 pretrusted + 4 colluders + 10 normal
  reputation::WeightedFeedbackEngine engine;
  detect::OptimizedDetector detector(detector_config());
  Simulator sim(config, paper_roles(4, 2), engine, &detector);
  sim.run();
  // At most the normal population minus one can be consumed.
  EXPECT_LE(sim.whitewash_count(), 10u);
  EXPECT_EQ(sim.sim_cycles_run(), config.sim_cycles);
}

TEST(WhitewashTest, DisabledByDefault) {
  SimConfig config = ww_config();
  config.whitewash_on_detection = false;
  reputation::WeightedFeedbackEngine engine;
  detect::OptimizedDetector detector(detector_config());
  const NodeRoles roles = paper_roles(4, 2);
  Simulator sim(config, roles, engine, &detector);
  sim.run();
  EXPECT_EQ(sim.whitewash_count(), 0u);
  EXPECT_EQ(sim.roles().colluders, roles.colluders);
}

}  // namespace
}  // namespace p2prep::net
