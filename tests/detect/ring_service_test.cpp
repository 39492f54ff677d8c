// The ring detector behind the service front door: --detector=ring wired
// through ServiceConfig, ring members suppressed and visible to colluder
// queries like flagged pairs, ring gauges surfaced in ServiceMetrics (the
// same struct GetMetrics serializes — tests/rpc/protocol_test.cpp covers
// the wire round trip), and unknown detector names failing fast at
// construction with the registered list.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "rating/types.h"
#include "service/service.h"

namespace p2prep {
namespace {

using rating::NodeId;
using rating::Rating;
using rating::Score;
using service::ReputationService;
using service::ServiceConfig;
using service::ServiceMetrics;

ServiceConfig ring_config(std::size_t nodes, std::size_t shards) {
  ServiceConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_shards = shards;
  cfg.detector = "ring";
  cfg.epoch_ratings = 1u << 20;  // epochs fire via force_epoch() only
  return cfg;
}

/// Ingests the directed boost cycle m0 -> m1 -> ... -> m0 plus a few
/// outside negatives per member (the C2 context).
void ingest_ring(ReputationService& svc, const std::vector<NodeId>& members,
                 NodeId outside_rater) {
  rating::Tick tick = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeId u = members[i];
    const NodeId v = members[(i + 1) % members.size()];
    for (int k = 0; k < 25; ++k)
      ASSERT_TRUE(svc.ingest({u, v, Score::kPositive, tick++}));
  }
  for (const NodeId member : members)
    for (int k = 0; k < 3; ++k)
      ASSERT_TRUE(svc.ingest({outside_rater, member, Score::kNegative,
                              tick++}));
}

TEST(DetectRingServiceTest, UnknownDetectorFailsFastListingNames) {
  ServiceConfig cfg = ring_config(10, 1);
  cfg.detector = "does-not-exist";
  try {
    ReputationService svc(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does-not-exist"), std::string::npos) << what;
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
    EXPECT_NE(what.find("ring"), std::string::npos) << what;
  }
}

TEST(DetectRingServiceTest, GlobalScopeRunsRingPluginAcrossShards) {
  ReputationService svc(ring_config(40, 3));

  const std::vector<NodeId> ring = {4, 9, 17, 23};
  ingest_ring(svc, ring, 31);
  svc.force_epoch();
  svc.drain();

  ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.rings_found, 1u);
  EXPECT_EQ(m.ring_largest, 4u);
  EXPECT_EQ(m.detections_total, 1u);

  const std::string log = svc.report_log();
  EXPECT_NE(log.find("global"), std::string::npos) << log;
  EXPECT_NE(log.find("rings=1"), std::string::npos) << log;
  EXPECT_NE(log.find("ring(4, 9, 17, 23)"), std::string::npos) << log;

  const service::ServiceSnapshot snap = svc.snapshot();
  for (const NodeId member : ring) {
    EXPECT_TRUE(snap.suspected(member)) << member;
    EXPECT_EQ(snap.reputation(member), 0.0) << member;  // kReset
  }
  EXPECT_FALSE(snap.suspected(31));

  // The gauge line rides through ServiceMetrics::to_string (what the CLI
  // metrics command prints).
  EXPECT_NE(m.to_string().find("rings: found=1 largest=4"),
            std::string::npos);

  // A second epoch over untouched state: the streaming cache must keep
  // reporting the same ring (the service feeds the detector dirty deltas).
  svc.force_epoch();
  svc.drain();
  m = svc.metrics();
  EXPECT_EQ(m.rings_found, 2u);
  EXPECT_EQ(m.ring_largest, 4u);
  svc.stop();
}

}  // namespace
}  // namespace p2prep
