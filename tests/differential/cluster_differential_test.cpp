// Decentralized-manager differential suite: 100 seeded collusion traces
// replayed twice — once through a ReputationService whose shards are
// backed by a real 3-manager M=2 cluster on loopback sockets
// (ServiceConfig::cluster), once through the plain single-process global
// scope service at the same shard count — must produce byte-identical
// detection reports and identical published state. The cluster path
// forwards every rating over the wire, pulls each range's canonical
// checkpoint bytes back at the epoch barrier, detects locally over the
// reloaded copies and pushes the verdicts cluster-wide; none of that may
// change a byte of output. Seeds are split across four parameterized
// lanes so ctest runs them in parallel.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "cluster/manager_node.h"
#include "service/service.h"
#include "tests/cluster/reserved_port.h"
#include "tests/differential/trace_gen.h"

namespace p2prep::service {
namespace {

using rating::Rating;

constexpr std::size_t kRingSize = 3;
constexpr std::uint32_t kReplication = 2;

ServiceConfig make_cfg(const testgen::Trace& t, std::uint64_t seed) {
  ServiceConfig cfg;
  cfg.num_nodes = t.n;
  cfg.num_shards = kRingSize;
  cfg.epoch_ratings = 300;  // a few natural cadence epochs per trace
  cfg.detector = (seed % 2) == 0 ? "optimized" : "basic";
  cfg.detector_config = testgen::config_for(seed);
  return cfg;
}

struct RunResult {
  std::string report_log;
  std::vector<double> reputations;
  std::vector<bool> suspected;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult run_trace(const ServiceConfig& cfg, const std::vector<Rating>& load) {
  ReputationService svc(cfg);
  for (const Rating& r : load) EXPECT_TRUE(svc.ingest(r));
  svc.force_epoch();
  svc.drain();
  RunResult out;
  out.report_log = svc.report_log();
  const ServiceSnapshot snap = svc.snapshot();
  out.reputations.resize(cfg.num_nodes);
  out.suspected.resize(cfg.num_nodes);
  for (rating::NodeId i = 0; i < cfg.num_nodes; ++i) {
    out.reputations[i] = snap.reputation(i);
    out.suspected[i] = snap.suspected(i);
  }
  svc.stop();
  return out;
}

/// Replays the trace through a fresh in-process 3-manager cluster and a
/// service in decentralized-manager mode.
RunResult run_clustered(const testgen::Trace& t, std::uint64_t seed) {
  // The reservations outlive the manager nodes declared after them.
  std::vector<testutil::ReservedPort> ports;
  std::vector<cluster::ManagerEndpoint> ring;
  for (std::size_t i = 0; i < kRingSize; ++i) {
    ports.emplace_back();
    ring.push_back({"127.0.0.1", ports.back().port()});
  }

  std::vector<std::unique_ptr<cluster::ManagerNode>> nodes;
  for (std::size_t i = 0; i < kRingSize; ++i) {
    cluster::ManagerNodeConfig mc;
    mc.index = i;
    mc.ring = ring;
    mc.replication = kReplication;
    mc.service = make_cfg(t, seed);  // same detector/suppression settings
    nodes.push_back(std::make_unique<cluster::ManagerNode>(mc));
    nodes.back()->start();
  }

  cluster::ClusterBackendConfig bc;
  bc.ring = ring;
  bc.replication = kReplication;
  bc.num_nodes = t.n;
  bc.connect_timeout_ms = 2000;
  bc.request_timeout_ms = 10000;

  ServiceConfig cfg = make_cfg(t, seed);
  cfg.cluster = cluster::make_cluster_backend(bc);
  const RunResult out = run_trace(cfg, t.ratings);
  for (auto& n : nodes) n->stop();
  return out;
}

class ClusterDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterDifferentialTest, SeedsByteIdenticalToSingleProcess) {
  const int lane = GetParam();
  // The four lanes jointly cover seeds 1..100 (seed % 4 picks the lane),
  // so ctest runs the full hundred in parallel.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    if (static_cast<int>(seed % 4) != lane) continue;
    const testgen::Trace t = testgen::make_trace(seed);
    const RunResult local = run_trace(make_cfg(t, seed), t.ratings);
    const RunResult clustered = run_clustered(t, seed);
    ASSERT_EQ(clustered.report_log, local.report_log) << "seed " << seed;
    ASSERT_EQ(clustered.reputations, local.reputations) << "seed " << seed;
    ASSERT_EQ(clustered.suspected, local.suspected) << "seed " << seed;
    ASSERT_FALSE(local.report_log.empty()) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ClusterDifferentialTest,
                         ::testing::Values(0, 1, 2, 3),
                         [](const auto& info) {
                           return "lane" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace p2prep::service
