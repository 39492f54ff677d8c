// In-process cluster integration: three ManagerNodes on loopback with
// M = 2 replication, driven through ClusterClient and raw RPC. Covers the
// routing matrix (owner-direct, non-holder forwarding, forwarded-loop
// rejection), per-source dedup, synchronous replication with replica
// failover, the rejoin/resync path, ring discovery, the cluster-wide
// colluder-set commit, and the per-manager gauges over the GetMetrics
// wire. The multi-process variants (real kill -9) live in
// failover_test.cpp; byte-identity vs the single-process service lives in
// tests/differential/cluster_differential_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "cluster/manager_node.h"
#include "cluster/protocol.h"
#include "rpc/client.h"
#include "service/wal.h"
#include "tests/cluster/reserved_port.h"

namespace p2prep::cluster {
namespace {

using rating::Rating;
using rating::Score;

constexpr std::size_t kNumNodes = 60;
constexpr std::size_t kRingSize = 3;
constexpr std::uint32_t kReplication = 2;

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::size_t i = 0; i < kRingSize; ++i) {
      ports_.emplace_back();
      ring_.push_back({"127.0.0.1", ports_.back().port()});
    }
    for (std::size_t i = 0; i < kRingSize; ++i) {
      nodes_.push_back(std::make_unique<ManagerNode>(node_config(i)));
      nodes_.back()->start();
    }
  }

  void TearDown() override {
    for (auto& n : nodes_)
      if (n) n->stop();
  }

  [[nodiscard]] ManagerNodeConfig node_config(std::size_t index) const {
    ManagerNodeConfig cfg;
    cfg.index = index;
    cfg.ring = ring_;
    cfg.replication = kReplication;
    cfg.service.num_nodes = kNumNodes;
    cfg.request_timeout_ms = 2000;
    return cfg;
  }

  [[nodiscard]] ClusterClientConfig client_config(
      std::uint64_t source) const {
    ClusterClientConfig cfg;
    cfg.ring = ring_;
    cfg.replication = kReplication;
    cfg.num_nodes = kNumNodes;
    cfg.source = source;
    cfg.connect_timeout_ms = 1000;
    cfg.request_timeout_ms = 2000;
    return cfg;
  }

  /// A raw single-connection RPC client to manager `idx`.
  [[nodiscard]] rpc::RpcClient raw_client(std::size_t idx) const {
    rpc::RpcClientConfig cc;
    cc.host = ring_[idx].host;
    cc.port = ring_[idx].port;
    cc.max_frame_bytes = kClusterMaxFrameBytes;
    return rpc::RpcClient(cc);
  }

  /// A ratee owned by range `range` under the cluster's map.
  [[nodiscard]] rating::NodeId ratee_in_range(std::size_t range) const {
    ClusterClient probe(client_config(999));
    for (rating::NodeId id = 0; id < kNumNodes; ++id)
      if (probe.owner(id) == range) return id;
    ADD_FAILURE() << "no node owned by range " << range;
    return 0;
  }

  /// A rater distinct from `ratee` (identity is irrelevant to routing).
  [[nodiscard]] static rating::NodeId other_than(rating::NodeId ratee) {
    return ratee == 0 ? 1 : static_cast<rating::NodeId>(ratee - 1);
  }

  std::vector<testutil::ReservedPort> ports_;  // held until teardown
  std::vector<ManagerEndpoint> ring_;
  std::vector<std::unique_ptr<ManagerNode>> nodes_;
};

TEST_F(ClusterTest, DiscoverBootstrapsFromAnyEntryNode) {
  for (std::size_t entry = 0; entry < kRingSize; ++entry) {
    const auto cfg = ClusterClient::discover(ring_[entry], 1000, 2000);
    ASSERT_TRUE(cfg.has_value()) << "entry " << entry;
    EXPECT_EQ(cfg->replication, kReplication);
    EXPECT_EQ(cfg->num_nodes, kNumNodes);
    ASSERT_EQ(cfg->ring.size(), kRingSize);
    for (std::size_t i = 0; i < kRingSize; ++i)
      EXPECT_EQ(cfg->ring[i].port, ring_[i].port);
  }
}

TEST_F(ClusterTest, HeldRangesFollowSuccessorRule) {
  // K=3, M=2: node i holds ranges i and (i+K-1)%K.
  for (std::size_t i = 0; i < kRingSize; ++i) {
    const auto held = nodes_[i]->held_ranges();
    ASSERT_EQ(held.size(), kReplication) << "node " << i;
    const std::size_t pred = (i + kRingSize - 1) % kRingSize;
    EXPECT_TRUE(held[0] == i || held[1] == i);
    EXPECT_TRUE(held[0] == pred || held[1] == pred);
  }
  // Owned keys partition the id space.
  std::uint64_t total = 0;
  for (auto& n : nodes_) total += n->metrics_snapshot().cluster_owned_keys;
  EXPECT_EQ(total, kNumNodes);
}

TEST_F(ClusterTest, InsertDedupsPerSourceSequence) {
  const rating::NodeId ratee = ratee_in_range(0);
  const Rating r{other_than(ratee), ratee, Score::kPositive, 1};
  MgrInsertRequest req;
  req.source = 42;
  req.seq = 7;
  req.rating = r;
  std::string body;
  req.encode(body);

  rpc::RpcClient c = raw_client(0);
  ASSERT_TRUE(c.connect());
  for (const std::uint8_t expect_dup : {0, 1}) {  // retry of the same seq
    std::string resp_body;
    const rpc::CallResult res =
        c.call_raw(rpc::MsgType::kMgrInsert, body, &resp_body);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.status, rpc::Status::kOk);
    rpc::Reader reader(resp_body);
    const auto resp = MgrInsertResponse::decode(reader);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->duplicate, expect_dup);
  }
  // The rating was applied once: both holders of range 0 report exactly
  // one applied rating.
  for (const std::size_t holder : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_EQ(nodes_[holder]->metrics_snapshot().ratings_applied, 1u)
        << "holder " << holder;
  }
}

TEST_F(ClusterTest, NonHolderForwardsAndForwardedLoopIsRejected) {
  // Range 0 is held by nodes 0 and 1; node 2 is a pure forwarder for it.
  const rating::NodeId ratee = ratee_in_range(0);
  MgrInsertRequest req;
  req.source = 43;
  req.seq = 1;
  req.rating = Rating{other_than(ratee), ratee, Score::kPositive, 2};
  std::string body;
  req.encode(body);

  rpc::RpcClient c = raw_client(2);
  ASSERT_TRUE(c.connect());
  std::string resp_body;
  rpc::CallResult res = c.call_raw(rpc::MsgType::kMgrInsert, body, &resp_body);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, rpc::Status::kOk);
  EXPECT_EQ(nodes_[2]->metrics_snapshot().cluster_forwards, 1u);
  EXPECT_EQ(nodes_[0]->metrics_snapshot().ratings_applied, 1u);

  // A frame already marked forwarded that lands on a non-holder is a
  // routing bug; the node answers kInternal instead of relaying again.
  req.seq = 2;
  req.forwarded = 1;
  body.clear();
  req.encode(body);
  res = c.call_raw(rpc::MsgType::kMgrInsert, body, &resp_body);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, rpc::Status::kInternal);
}

TEST_F(ClusterTest, ReplicaServesInsertsAndQueriesAfterPrimaryStops) {
  ClusterClient client(client_config(1));
  const rating::NodeId ratee = ratee_in_range(1);
  const Rating before{other_than(ratee), ratee, Score::kPositive, 1};
  ASSERT_TRUE(client.insert(before));

  // Kill range 1's primary (node 1); node 2 is the surviving holder.
  nodes_[1]->stop();
  nodes_[1].reset();

  const Rating after{other_than(ratee), ratee, Score::kPositive, 2};
  ASSERT_TRUE(client.insert(after));
  EXPECT_EQ(client.failovers(), 1u);

  rpc::QueryReputationResponse q;
  ASSERT_TRUE(client.query(ratee, &q));
  EXPECT_EQ(q.shard, 1u);
  // Both acknowledged ratings live on the survivor.
  EXPECT_EQ(nodes_[2]->metrics_snapshot().ratings_applied, 2u);
  EXPECT_GE(nodes_[2]->metrics_snapshot().cluster_failovers, 1u);
}

TEST_F(ClusterTest, RestartedManagerResyncsFromPeers) {
  ClusterClient client(client_config(2));
  const rating::NodeId ratee = ratee_in_range(1);
  ASSERT_TRUE(client.insert({other_than(ratee), ratee, Score::kPositive, 1}));

  nodes_[1]->stop();
  nodes_[1].reset();
  // Ingest continues against the survivor while node 1 is down.
  ASSERT_TRUE(client.insert({other_than(ratee), ratee, Score::kNegative, 2}));
  ASSERT_TRUE(client.insert({other_than(ratee), ratee, Score::kPositive, 3}));

  // Restart (volatile: all state must come from the peer resync).
  nodes_[1] = std::make_unique<ManagerNode>(node_config(1));
  nodes_[1]->start();

  // The restarted node serves range 1 with the full history: its state
  // blob matches the survivor's byte for byte.
  rpc::RpcClient fresh = raw_client(1);
  ASSERT_TRUE(fresh.connect());
  MgrStatePullRequest pull;
  pull.range = 1;
  std::string body;
  pull.encode(body);
  std::string from_restarted;
  rpc::CallResult res =
      fresh.call_raw(rpc::MsgType::kMgrStatePull, body, &from_restarted);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.status, rpc::Status::kOk);

  rpc::RpcClient survivor = raw_client(2);
  ASSERT_TRUE(survivor.connect());
  std::string from_survivor;
  res = survivor.call_raw(rpc::MsgType::kMgrStatePull, body, &from_survivor);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.status, rpc::Status::kOk);

  rpc::Reader r1(from_restarted);
  rpc::Reader r2(from_survivor);
  const auto s1 = MgrStatePullResponse::decode(r1);
  const auto s2 = MgrStatePullResponse::decode(r2);
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s1->blob, s2->blob);
  EXPECT_EQ(s1->seqs, s2->seqs);
  ASSERT_TRUE(service::parse_checkpoint(s1->blob).has_value());
}

TEST_F(ClusterTest, StatePullFromNonHolderIsRejected) {
  // Node 0 does not hold range 1 (held by 1 and 2).
  rpc::RpcClient c = raw_client(0);
  ASSERT_TRUE(c.connect());
  MgrStatePullRequest pull;
  pull.range = 1;
  std::string body;
  pull.encode(body);
  std::string resp_body;
  const rpc::CallResult res =
      c.call_raw(rpc::MsgType::kMgrStatePull, body, &resp_body);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, rpc::Status::kInvalidArgument);
}

TEST_F(ClusterTest, ColluderSetCommitsEpochClusterWideAndIsIdempotent) {
  ClusterClient client(client_config(3));
  const rating::NodeId ratee = ratee_in_range(0);
  for (rating::Tick t = 1; t <= 4; ++t)
    ASSERT_TRUE(client.insert({other_than(ratee), ratee,
                               Score::kPositive, t}));

  ASSERT_TRUE(client.push_colluders(1, {}));
  ASSERT_TRUE(client.push_colluders(2, {ratee}));
  ASSERT_TRUE(client.push_colluders(2, {ratee}));  // replayed commit: no-op

  for (std::size_t i = 0; i < kRingSize; ++i)
    EXPECT_EQ(nodes_[i]->metrics_snapshot().epochs_completed, 2u)
        << "node " << i;

  rpc::QueryReputationResponse q;
  ASSERT_TRUE(client.query(ratee, &q));
  EXPECT_EQ(q.epoch, 2u);
  EXPECT_EQ(q.suspected, 1u);
}

TEST_F(ClusterTest, ReplicateAndStatePullRejectHostileRange) {
  rpc::RpcClient c = raw_client(0);
  ASSERT_TRUE(c.connect());
  // Ranges >= the ring size never name a store; before validation the
  // modular holds() arithmetic could alias them to a held offset (e.g.
  // range 7 in a ring of 3) and dereference a null store.
  for (const std::uint32_t hostile : {std::uint32_t{kRingSize},
                                      std::uint32_t{7}, 0xffffffffu}) {
    MgrReplicateRequest rep;
    rep.range = hostile;
    rep.source = 50;
    rep.seq = 1;
    rep.rating = Rating{0, 1, Score::kPositive, 1};
    std::string body;
    rep.encode(body);
    std::string resp_body;
    rpc::CallResult res =
        c.call_raw(rpc::MsgType::kMgrReplicate, body, &resp_body);
    ASSERT_TRUE(res.ok) << "range " << hostile;
    EXPECT_EQ(res.status, rpc::Status::kInvalidArgument);

    MgrStatePullRequest pull;
    pull.range = hostile;
    body.clear();
    pull.encode(body);
    res = c.call_raw(rpc::MsgType::kMgrStatePull, body, &resp_body);
    ASSERT_TRUE(res.ok) << "range " << hostile;
    EXPECT_EQ(res.status, rpc::Status::kInvalidArgument);

    MgrResyncHintRequest hint;
    hint.range = hostile;
    body.clear();
    hint.encode(body);
    res = c.call_raw(rpc::MsgType::kMgrResyncHint, body, &resp_body);
    ASSERT_TRUE(res.ok) << "range " << hostile;
    EXPECT_EQ(res.status, rpc::Status::kInvalidArgument);
  }
  // Nothing was applied anywhere.
  for (std::size_t i = 0; i < kRingSize; ++i)
    EXPECT_EQ(nodes_[i]->metrics_snapshot().ratings_applied, 0u);
}

TEST_F(ClusterTest, ColluderSetRejectsHostileFlaggedId) {
  rpc::RpcClient c = raw_client(0);
  ASSERT_TRUE(c.connect());
  MgrColluderSetRequest req;
  req.epoch_seq = 1;
  req.flagged = {static_cast<rating::NodeId>(kNumNodes)};  // out of range
  std::string body;
  req.encode(body);
  std::string resp_body;
  const rpc::CallResult res =
      c.call_raw(rpc::MsgType::kMgrColluderSet, body, &resp_body);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, rpc::Status::kInvalidArgument);
  EXPECT_EQ(nodes_[0]->metrics_snapshot().epochs_completed, 0u);
}

TEST_F(ClusterTest, ColluderSetRejectsEpochJumpBeyondWindow) {
  rpc::RpcClient c = raw_client(0);
  ASSERT_TRUE(c.connect());
  MgrColluderSetRequest req;
  req.epoch_seq = ~std::uint64_t{0};  // hostile: would wedge every later epoch
  std::string body;
  req.encode(body);
  std::string resp_body;
  const rpc::CallResult res =
      c.call_raw(rpc::MsgType::kMgrColluderSet, body, &resp_body);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, rpc::Status::kInvalidArgument);
  EXPECT_EQ(nodes_[0]->metrics_snapshot().epochs_completed, 0u);

  // The cluster is not wedged: the next legitimate epoch still commits.
  ClusterClient client(client_config(5));
  ASSERT_TRUE(client.push_colluders(1, {}));
  for (std::size_t i = 0; i < kRingSize; ++i)
    EXPECT_EQ(nodes_[i]->metrics_snapshot().epochs_completed, 1u);
}

TEST_F(ClusterTest, ResyncHintCatchesUpStaleHolder) {
  // Plant a copy on node 0 only: handle_replicate never re-replicates,
  // so node 1 (the other holder of range 0) is now one rating behind —
  // the state a slow replica is in after missing a copy.
  const rating::NodeId ratee = ratee_in_range(0);
  MgrReplicateRequest rep;
  rep.range = 0;
  rep.source = 51;
  rep.seq = 1;
  rep.rating = Rating{other_than(ratee), ratee, Score::kPositive, 1};
  std::string body;
  rep.encode(body);
  rpc::RpcClient c0 = raw_client(0);
  ASSERT_TRUE(c0.connect());
  std::string resp_body;
  rpc::CallResult res = c0.call_raw(rpc::MsgType::kMgrReplicate, body, &resp_body);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.status, rpc::Status::kOk);
  EXPECT_EQ(nodes_[0]->metrics_snapshot().ratings_applied, 1u);
  EXPECT_EQ(nodes_[1]->metrics_snapshot().ratings_applied, 0u);

  // The hint makes node 1 pull range 0 from node 0 and adopt its copy.
  rpc::RpcClient c1 = raw_client(1);
  ASSERT_TRUE(c1.connect());
  MgrResyncHintRequest hint;
  hint.range = 0;
  body.clear();
  hint.encode(body);
  res = c1.call_raw(rpc::MsgType::kMgrResyncHint, body, &resp_body);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, rpc::Status::kOk);
  EXPECT_EQ(nodes_[1]->metrics_snapshot().ratings_applied, 1u);

  // Both holders now serve byte-identical state.
  MgrStatePullRequest pull;
  pull.range = 0;
  body.clear();
  pull.encode(body);
  std::string from0, from1;
  ASSERT_EQ(c0.call_raw(rpc::MsgType::kMgrStatePull, body, &from0).status,
            rpc::Status::kOk);
  ASSERT_EQ(c1.call_raw(rpc::MsgType::kMgrStatePull, body, &from1).status,
            rpc::Status::kOk);
  EXPECT_EQ(from0, from1);

  // A hint for a range the receiver does not hold is hostile.
  hint.range = 1;  // node 0 does not hold range 1
  body.clear();
  hint.encode(body);
  res = c0.call_raw(rpc::MsgType::kMgrResyncHint, body, &resp_body);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, rpc::Status::kInvalidArgument);
}

TEST_F(ClusterTest, ReplicationDebtIsRepaidWhenPeerReturns) {
  // Kill range 1's primary, then ack an insert through the surviving
  // holder: the copy to the dead peer fails and is recorded as debt.
  nodes_[1]->stop();
  nodes_[1].reset();
  const rating::NodeId ratee = ratee_in_range(1);
  ClusterClient client(client_config(6));
  ASSERT_TRUE(client.insert({other_than(ratee), ratee, Score::kPositive, 1}));
  EXPECT_EQ(nodes_[2]->metrics_snapshot().cluster_replica_lag, 1u);

  // The peer comes back (resyncs on start, as a restart would).
  nodes_[1] = std::make_unique<ManagerNode>(node_config(1));
  nodes_[1]->start();

  // The next insert through the survivor replicates successfully, which
  // triggers the resync hint toward the recovered peer and repays the
  // recorded debt — without any further restart.
  MgrInsertRequest ins;
  ins.source = 52;
  ins.seq = 1;
  ins.rating = Rating{other_than(ratee), ratee, Score::kNegative, 2};
  std::string body;
  ins.encode(body);
  rpc::RpcClient c2 = raw_client(2);
  ASSERT_TRUE(c2.connect());
  std::string resp_body;
  const rpc::CallResult res =
      c2.call_raw(rpc::MsgType::kMgrInsert, body, &resp_body);
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.status, rpc::Status::kOk);
  EXPECT_EQ(nodes_[2]->metrics_snapshot().cluster_replica_lag, 0u);

  // Both holders of range 1 serve the same bytes again.
  MgrStatePullRequest pull;
  pull.range = 1;
  body.clear();
  pull.encode(body);
  rpc::RpcClient c1 = raw_client(1);
  ASSERT_TRUE(c1.connect());
  std::string from1, from2;
  ASSERT_EQ(c1.call_raw(rpc::MsgType::kMgrStatePull, body, &from1).status,
            rpc::Status::kOk);
  ASSERT_EQ(c2.call_raw(rpc::MsgType::kMgrStatePull, body, &from2).status,
            rpc::Status::kOk);
  EXPECT_EQ(from1, from2);
}

TEST_F(ClusterTest, RejoinAloneRepaysReplicationDebt) {
  // Same debt setup as above: range 1's primary dies, a failover insert
  // through the survivor records one owed copy.
  nodes_[1]->stop();
  nodes_[1].reset();
  const rating::NodeId ratee = ratee_in_range(1);
  ClusterClient client(client_config(7));
  ASSERT_TRUE(client.insert({other_than(ratee), ratee, Score::kPositive, 1}));
  ASSERT_EQ(nodes_[2]->metrics_snapshot().cluster_replica_lag, 1u);

  // The peer restarts and broadcasts its rejoin — and nothing else: no
  // insert ever touches the shared range again. The survivor must repay
  // the debt off the rejoin alone (it repairs after answering the
  // broadcast), or an idle cluster would report phantom lag forever.
  nodes_[1] = std::make_unique<ManagerNode>(node_config(1));
  nodes_[1]->start();
  std::uint64_t lag = 1;
  for (int tries = 0; tries < 100; ++tries) {
    lag = nodes_[2]->metrics_snapshot().cluster_replica_lag;
    if (lag == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(lag, 0u);

  // Both holders of range 1 serve the same bytes.
  MgrStatePullRequest pull;
  pull.range = 1;
  std::string body;
  pull.encode(body);
  rpc::RpcClient c1 = raw_client(1);
  rpc::RpcClient c2 = raw_client(2);
  ASSERT_TRUE(c1.connect());
  ASSERT_TRUE(c2.connect());
  std::string from1, from2;
  ASSERT_EQ(c1.call_raw(rpc::MsgType::kMgrStatePull, body, &from1).status,
            rpc::Status::kOk);
  ASSERT_EQ(c2.call_raw(rpc::MsgType::kMgrStatePull, body, &from2).status,
            rpc::Status::kOk);
  EXPECT_EQ(from1, from2);
}

TEST_F(ClusterTest, GaugesTravelTheGetMetricsWire) {
  ClusterClient client(client_config(4));
  // Generate one forward: raw insert at a non-holder of range 0.
  const rating::NodeId ratee = ratee_in_range(0);
  MgrInsertRequest req;
  req.source = 44;
  req.seq = 1;
  req.rating = Rating{other_than(ratee), ratee, Score::kPositive, 1};
  std::string body;
  req.encode(body);
  rpc::RpcClient c = raw_client(2);
  ASSERT_TRUE(c.connect());
  std::string resp_body;
  ASSERT_TRUE(c.call_raw(rpc::MsgType::kMgrInsert, body, &resp_body).ok);

  std::uint64_t owned_total = 0;
  for (std::size_t i = 0; i < kRingSize; ++i) {
    service::ServiceMetrics wire;
    ASSERT_TRUE(client.get_metrics(i, &wire));
    const service::ServiceMetrics local = nodes_[i]->metrics_snapshot();
    // The wire snapshot and the in-process snapshot agree on the stable
    // gauges (counters that cannot move between the two reads here).
    EXPECT_EQ(wire.cluster_owned_keys, local.cluster_owned_keys);
    EXPECT_EQ(wire.cluster_forwards, local.cluster_forwards);
    EXPECT_EQ(wire.cluster_failovers, local.cluster_failovers);
    EXPECT_EQ(wire.cluster_replica_lag, local.cluster_replica_lag);
    EXPECT_EQ(wire.current_shard_count, kRingSize);
    owned_total += wire.cluster_owned_keys;
  }
  EXPECT_EQ(owned_total, kNumNodes);
  service::ServiceMetrics m2;
  ASSERT_TRUE(client.get_metrics(2, &m2));
  EXPECT_EQ(m2.cluster_forwards, 1u);
}

// A manager recovers its ranges under the service's recovery rule: a WAL
// older than its checkpoint, or shorter than the checkpoint claims,
// refuses start-up. Resuming appends to such a WAL would acknowledge
// ratings the next restart skips.
TEST(ClusterRecoveryTest, MismatchedCheckpointAndWalRefuseStartUp) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "p2prep_cluster_recovery_rule";
  ManagerNodeConfig cfg;
  cfg.ring = {{"127.0.0.1", 0}};  // one manager: it holds range 0
  cfg.service.num_nodes = kNumNodes;
  cfg.data_dir = dir.string();
  const auto write_range = [&dir](std::uint64_t ckpt_generation,
                                  std::uint64_t ckpt_records,
                                  std::uint64_t wal_generation,
                                  std::uint64_t wal_records) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    service::ShardCheckpoint ckpt;
    ckpt.wal_generation = ckpt_generation;
    ckpt.wal_records_applied = ckpt_records;
    ASSERT_TRUE(
        service::write_checkpoint((dir / "range-0.ckpt").string(), ckpt));
    service::WalWriter wal = service::WalWriter::create(
        (dir / "range-0.wal").string(), wal_generation, 0, 1);
    for (std::uint64_t k = 0; k < wal_records; ++k)
      wal.append(service::WalRecord::make_rating(
          {1, 2, Score::kPositive, static_cast<rating::Tick>(k)}));
  };

  // The WAL is a generation older than the checkpoint.
  write_range(2, 0, 1, 3);
  {
    ManagerNode node(cfg);
    EXPECT_THROW(node.start(), std::runtime_error);
  }
  // The checkpoint claims 5 records of a 2-record WAL generation.
  write_range(1, 5, 1, 2);
  {
    ManagerNode node(cfg);
    EXPECT_THROW(node.start(), std::runtime_error);
  }
  // Control: a matching pair starts and replays nothing twice.
  write_range(1, 2, 1, 3);
  {
    ManagerNode node(cfg);
    ASSERT_NO_THROW(node.start());
    EXPECT_EQ(node.metrics_snapshot().ratings_applied, 1u);
    node.stop();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p2prep::cluster
