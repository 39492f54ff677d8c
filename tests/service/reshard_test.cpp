// Elastic-resharding tests: online resize() under live traffic must leave
// detection reports byte-identical to a never-resized run, survive crashes
// inside the handoff window, and reject configurations it cannot serve
// (DESIGN.md "Elastic resharding").
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "service/service.h"
#include "service/shard_map.h"
#include "service/wal.h"
#include "util/rng.h"

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;
using rating::NodeId;
using rating::Rating;
using rating::Score;

constexpr std::size_t kN = 60;

std::vector<Rating> reshard_workload(std::uint64_t seed) {
  std::vector<Rating> out;
  util::Rng rng(seed);
  rating::Tick t = 0;
  for (int k = 0; k < 45; ++k) {
    out.push_back({0, 1, Score::kPositive, t++});
    out.push_back({1, 0, Score::kPositive, t++});
    out.push_back({2, 3, Score::kPositive, t++});
    out.push_back({3, 2, Score::kPositive, t++});
  }
  for (NodeId rater = 0; rater < kN; ++rater) {
    for (int k = 0; k < 6; ++k) {
      auto ratee = static_cast<NodeId>(rng.next_below(kN));
      if (ratee == rater) ratee = static_cast<NodeId>((ratee + 1) % kN);
      out.push_back({rater, ratee,
                     rng.chance(ratee < 4 ? 0.05 : 0.85) ? Score::kPositive
                                                         : Score::kNegative,
                     t++});
    }
  }
  return out;
}

ServiceConfig reshard_config(std::size_t shards) {
  ServiceConfig cfg;
  cfg.num_nodes = kN;
  cfg.num_shards = shards;
  cfg.epoch_ratings = 120;  // natural cadence epochs across the stream
  cfg.detector_config.positive_fraction_min = 0.8;
  cfg.detector_config.complement_fraction_max = 0.2;
  cfg.detector_config.frequency_min = 20;
  cfg.detector_config.high_rep_threshold = 0.05;
  return cfg;
}

struct RunResult {
  std::string report_log;
  std::vector<double> reputations;
  std::vector<bool> suspected;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult capture(const ReputationService& svc) {
  RunResult out;
  out.report_log = svc.report_log();
  const ServiceSnapshot snap = svc.snapshot();
  out.reputations.resize(kN);
  out.suspected.resize(kN);
  for (NodeId i = 0; i < kN; ++i) {
    out.reputations[i] = snap.reputation(i);
    out.suspected[i] = snap.suspected(i);
  }
  return out;
}

/// Replays the whole workload without any resize and captures the result.
RunResult static_run(std::size_t shards, const std::vector<Rating>& load) {
  ReputationService svc(reshard_config(shards));
  for (const Rating& r : load) EXPECT_TRUE(svc.ingest(r));
  svc.force_epoch();
  svc.drain();
  RunResult out = capture(svc);
  svc.stop();
  return out;
}

TEST(ReshardTest, GrowMidStreamKeepsReportsByteIdentical) {
  const auto load = reshard_workload(61);
  const RunResult expected = static_run(2, load);
  ASSERT_FALSE(expected.report_log.empty());

  ReputationService svc(reshard_config(2));
  const std::size_t third = load.size() / 3;
  for (std::size_t k = 0; k < third; ++k) ASSERT_TRUE(svc.ingest(load[k]));
  const ResizeStats rs = svc.resize(4);
  EXPECT_EQ(rs.num_shards, 4u);
  EXPECT_GT(rs.keys_moved, 0u);
  EXPECT_EQ(svc.num_shards(), 4u);
  for (std::size_t k = third; k < load.size(); ++k)
    ASSERT_TRUE(svc.ingest(load[k]));
  svc.force_epoch();
  svc.drain();
  EXPECT_EQ(capture(svc), expected);
  svc.stop();
}

TEST(ReshardTest, ShrinkMidStreamKeepsReportsByteIdentical) {
  const auto load = reshard_workload(62);
  const RunResult expected = static_run(4, load);

  ReputationService svc(reshard_config(4));
  const std::size_t half = load.size() / 2;
  for (std::size_t k = 0; k < half; ++k) ASSERT_TRUE(svc.ingest(load[k]));
  const ResizeStats rs = svc.resize(2);
  EXPECT_EQ(rs.num_shards, 2u);
  EXPECT_GT(rs.keys_moved, 0u);
  for (std::size_t k = half; k < load.size(); ++k)
    ASSERT_TRUE(svc.ingest(load[k]));
  svc.force_epoch();
  svc.drain();
  EXPECT_EQ(capture(svc), expected);
  svc.stop();
}

// The published view is keyed by node id, and a moved node carries its
// state into its new shard, so a resize with no epoch after it must leave
// every read — in process and over RPC — exactly as it was.
TEST(ReshardTest, SnapshotReadsSurviveAResize) {
  // The planted colluders 0..3 all stay put on a 2 -> 4 grow; swap
  // colluder 0's id with the first node that moves.
  const std::vector<NodeId> moved =
      ShardMap::moved_nodes(ShardMap(2, kN), ShardMap(4, kN));
  ASSERT_FALSE(moved.empty());
  const NodeId mover = moved.front();
  const auto relabel = [mover](NodeId id) {
    return id == 0 ? mover : id == mover ? NodeId{0} : id;
  };
  auto load = reshard_workload(61);
  for (Rating& r : load) {
    r.rater = relabel(r.rater);
    r.ratee = relabel(r.ratee);
  }
  ReputationService svc(reshard_config(2));
  rpc::RpcServer server(svc, rpc::RpcServerConfig{});
  rpc::RpcClientConfig client_cfg;
  client_cfg.port = server.port();
  rpc::RpcClient client(client_cfg);
  ASSERT_TRUE(client.connect());

  for (const Rating& r : load) ASSERT_TRUE(svc.ingest(r));
  const std::uint64_t last = svc.force_epoch();
  svc.drain();
  const ServiceSnapshot before = svc.snapshot();
  ASSERT_EQ(before.min_epoch(), last);

  // Meaningful only if a flagged node changes owner on the grow.
  bool flagged_moves = false;
  for (NodeId id : moved) flagged_moves = flagged_moves || before.suspected(id);
  ASSERT_TRUE(flagged_moves);

  const auto expect_reads_unchanged = [&](std::size_t shards) {
    const ServiceSnapshot after = svc.snapshot();
    EXPECT_EQ(after.num_shards(), shards);
    EXPECT_EQ(after.min_epoch(), last);
    for (NodeId i = 0; i < kN; ++i) {
      EXPECT_EQ(after.reputation(i), before.reputation(i)) << i;
      EXPECT_EQ(after.suspected(i), before.suspected(i)) << i;
      rpc::QueryReputationResponse resp;
      ASSERT_EQ(client.query_reputation(i, &resp).status, rpc::Status::kOk);
      EXPECT_EQ(resp.epoch, last) << i;
      EXPECT_EQ(resp.reputation, before.reputation(i)) << i;
      EXPECT_EQ(resp.suspected != 0, before.suspected(i)) << i;
      EXPECT_EQ(resp.shard, after.owner(i)) << i;
    }
  };
  ASSERT_GT(svc.resize(4).keys_moved, 0u);
  expect_reads_unchanged(4);
  ASSERT_GT(svc.resize(2).keys_moved, 0u);
  expect_reads_unchanged(2);
  svc.stop();
}

TEST(ReshardTest, ResizeToSameCountIsANoOp) {
  ReputationService svc(reshard_config(3));
  ASSERT_TRUE(svc.ingest({1, 2, Score::kPositive, 0}));
  const ResizeStats rs = svc.resize(3);
  EXPECT_EQ(rs.num_shards, 3u);
  EXPECT_EQ(rs.keys_moved, 0u);
  EXPECT_EQ(svc.metrics().resizes_completed, 0u);
  svc.stop();
}

TEST(ReshardTest, MetricsExposeShardMapGauges) {
  const auto load = reshard_workload(63);
  ReputationService svc(reshard_config(2));
  for (std::size_t k = 0; k < load.size() / 2; ++k)
    ASSERT_TRUE(svc.ingest(load[k]));

  ServiceMetrics before = svc.metrics();
  EXPECT_EQ(before.current_shard_count, 2u);
  EXPECT_EQ(before.shard_map_epoch, 0u);
  EXPECT_EQ(before.resizes_completed, 0u);

  const ResizeStats rs = svc.resize(4);
  const ServiceMetrics after = svc.metrics();
  EXPECT_EQ(after.current_shard_count, 4u);
  EXPECT_EQ(after.shard_map_epoch, 1u);
  EXPECT_EQ(after.resizes_completed, 1u);
  EXPECT_EQ(after.keys_moved_last_resize, rs.keys_moved);
  EXPECT_GT(after.last_resize_ms, 0.0);
  // The gauges render in the text dump the CLI prints.
  EXPECT_NE(after.to_string().find("shards: count=4"), std::string::npos);
  svc.drain();
  svc.stop();
}

TEST(ReshardTest, EpochCountersSurviveAResize) {
  const auto load = reshard_workload(64);
  ReputationService svc(reshard_config(2));
  for (const Rating& r : load) ASSERT_TRUE(svc.ingest(r));
  svc.drain();
  const ServiceMetrics before = svc.metrics();
  ASSERT_GT(before.epochs_completed, 0u);

  svc.resize(5);
  const ServiceMetrics after = svc.metrics();
  // Applied/epoch totals are service-lifetime counters; the handoff must
  // not reset them even though shard instances were reshuffled.
  EXPECT_EQ(after.ratings_applied, before.ratings_applied);
  EXPECT_EQ(after.epochs_completed, before.epochs_completed);
  svc.stop();
}

// A grown shard joins at the epoch the live shards closed, so a restart
// right after the grow reads that epoch for the nodes it owns too.
TEST(ReshardTest, RestartAfterAGrowReadsTheClosedEpoch) {
  const fs::path dir =
      fs::temp_directory_path() / "p2prep_reshard_restart_after_grow";
  fs::remove_all(dir);
  ServiceConfig cfg = reshard_config(2);
  cfg.epoch_ratings = 1u << 30;  // epochs only via force_epoch()
  cfg.wal_dir = dir.string();
  const auto load = reshard_workload(66);
  {
    ReputationService svc(cfg);
    const std::size_t step = load.size() / 10;
    for (std::size_t k = 0; k < load.size(); ++k) {
      ASSERT_TRUE(svc.ingest(load[k]));
      if ((k + 1) % step == 0 && (k + 1) / step <= 10) svc.force_epoch();
    }
    svc.drain();
    ASSERT_EQ(svc.snapshot().min_epoch(), 10u);
    ASSERT_GT(svc.resize(4).keys_moved, 0u);
    svc.stop();
  }
  ReputationService svc(cfg);
  ASSERT_TRUE(svc.recovered());
  ASSERT_EQ(svc.num_shards(), 4u);
  const ServiceSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.min_epoch(), 10u);
  for (NodeId i = 0; i < kN; ++i) EXPECT_EQ(snap.epoch(i), 10u) << i;
  svc.stop();
  fs::remove_all(dir);
}

// --- Rejected configurations ----------------------------------------------

TEST(ReshardTest, PerShardScopeCannotResize) {
  ServiceConfig cfg = reshard_config(2);
  cfg.epoch_scope = EpochScope::kPerShard;
  ReputationService svc(cfg);
  EXPECT_THROW(svc.resize(4), std::invalid_argument);
  svc.stop();
}

TEST(ReshardTest, ZeroShardsIsRejected) {
  ReputationService svc(reshard_config(2));
  EXPECT_THROW(svc.resize(0), std::invalid_argument);
  svc.stop();
}

TEST(ReshardTest, GroupDetectorCannotGrowPastOneShard) {
  ServiceConfig cfg = reshard_config(1);
  cfg.detector = "group";
  ReputationService svc(cfg);
  EXPECT_THROW(svc.resize(2), std::invalid_argument);
  EXPECT_EQ(svc.num_shards(), 1u);
  svc.stop();
}

TEST(ReshardTest, ResizeAfterStopThrows) {
  ReputationService svc(reshard_config(2));
  svc.stop();
  EXPECT_THROW(svc.resize(4), std::runtime_error);
}

// --- Accomplice propagation vs the shard map (regression) ------------------
// The cross-shard flagged-set exchange made accomplice propagation
// map-agnostic: it stays on at any shard count, the constructor never
// forces it off, and resize() no longer rejects multi-owner targets.

TEST(ReshardTest, AccomplicePropagationSurvivesGrowToMultiOwnerMap) {
  ServiceConfig cfg = reshard_config(1);
  cfg.detector_config.flag_accomplices = true;
  ReputationService svc(cfg);
  ASSERT_TRUE(svc.ingest({1, 2, Score::kPositive, 0}));
  svc.drain();
  EXPECT_NO_THROW(svc.resize(2));
  EXPECT_EQ(svc.num_shards(), 2u);
  EXPECT_TRUE(svc.config().detector_config.flag_accomplices);
  svc.stop();
}

TEST(ReshardTest, MultiOwnerMapKeepsAccomplicePropagationEnabled) {
  ServiceConfig cfg = reshard_config(2);
  cfg.detector_config.flag_accomplices = true;
  ReputationService svc(cfg);
  ASSERT_TRUE(svc.ingest({1, 2, Score::kPositive, 0}));
  svc.drain();
  EXPECT_TRUE(svc.config().detector_config.flag_accomplices);
  EXPECT_NO_THROW(svc.resize(4));
  svc.stop();
}

// --- Crash inside the handoff window ---------------------------------------

class ReshardCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("p2prep_reshard_crash_" + std::string(::testing::UnitTest::
                                                      GetInstance()
                                                          ->current_test_info()
                                                          ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] ServiceConfig durable(std::size_t shards) const {
    ServiceConfig cfg = reshard_config(shards);
    cfg.wal_dir = dir_.string();
    return cfg;
  }

  fs::path dir_;
};

TEST_F(ReshardCrashTest, FenceMarkerAtWalTailIsStrippedOnRecovery) {
  const auto load = reshard_workload(65);
  const std::size_t half = load.size() / 2;
  {
    ReputationService svc(durable(3));
    for (std::size_t k = 0; k < half; ++k) ASSERT_TRUE(svc.ingest(load[k]));
    svc.drain();
    svc.crash_stop();
  }
  // Simulate a crash after the workers logged their resize fence but
  // before the commit rotated the WALs: every shard's log ends with an
  // uncommitted kShardMapChange marker.
  for (std::size_t s = 0; s < 3; ++s) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%03zu.wal", s);
    const std::string p = (dir_ / name).string();
    const WalReadResult before = read_wal(p);
    ASSERT_TRUE(before.found);
    WalWriter w = WalWriter::resume(p, before.generation, before.map_epoch,
                                    before.num_shards, before.valid_bytes,
                                    before.records.size());
    w.append(WalRecord::make_map_change(1, 5));
  }
  // Recovery strips the fence residue and resumes under the OLD map.
  ReputationService svc(durable(3));
  ASSERT_TRUE(svc.recovered());
  EXPECT_EQ(svc.num_shards(), 3u);
  EXPECT_EQ(svc.metrics().shard_map_epoch, 0u);
  EXPECT_EQ(svc.metrics().ratings_applied, half);

  // The interrupted resize never happened; rerunning it now and finishing
  // the stream still matches the never-resized reference.
  const ResizeStats rs = svc.resize(5);
  EXPECT_EQ(rs.num_shards, 5u);
  for (std::size_t k = half; k < load.size(); ++k)
    ASSERT_TRUE(svc.ingest(load[k]));
  svc.force_epoch();
  svc.drain();
  EXPECT_EQ(capture(svc), static_run(3, load));
  svc.stop();
}

TEST_F(ReshardCrashTest, RecordsAfterAFenceMarkerAreCorruption) {
  {
    ReputationService svc(durable(2));
    ASSERT_TRUE(svc.ingest({1, 2, Score::kPositive, 0}));
    svc.drain();
    svc.crash_stop();
  }
  // A rating logged AFTER a fence marker cannot happen in any crash
  // ordering (workers park at the fence until the commit rotates the
  // file), so recovery must refuse the directory outright.
  const std::string p = (dir_ / "shard-000.wal").string();
  const WalReadResult before = read_wal(p);
  ASSERT_TRUE(before.found);
  {
    WalWriter w = WalWriter::resume(p, before.generation, before.map_epoch,
                                    before.num_shards, before.valid_bytes,
                                    before.records.size());
    w.append(WalRecord::make_map_change(1, 4));
    w.append(WalRecord::make_rating({3, 4, Score::kPositive, 1}));
  }
  EXPECT_THROW(ReputationService svc(durable(2)), std::runtime_error);
}

TEST_F(ReshardCrashTest, CommittedResizeRecoversAtTheNewWidth) {
  const auto load = reshard_workload(66);
  const std::size_t half = load.size() / 2;
  {
    ReputationService svc(durable(2));
    for (std::size_t k = 0; k < half; ++k) ASSERT_TRUE(svc.ingest(load[k]));
    svc.drain();
    svc.resize(4);
    // Crash right after the commit: the new map must already be durable.
    svc.crash_stop();
  }
  ReputationService svc(durable(2));
  ASSERT_TRUE(svc.recovered());
  EXPECT_EQ(svc.num_shards(), 4u);
  EXPECT_EQ(svc.metrics().shard_map_epoch, 1u);
  EXPECT_EQ(svc.metrics().ratings_applied, half);
  for (std::size_t k = half; k < load.size(); ++k)
    ASSERT_TRUE(svc.ingest(load[k]));
  svc.force_epoch();
  svc.drain();
  const RunResult actual = capture(svc);
  const RunResult expected = static_run(2, load);
  EXPECT_EQ(actual.reputations, expected.reputations);
  EXPECT_EQ(actual.suspected, expected.suspected);
  // Pre-resize epochs were restored from the commit's checkpoints, not
  // replayed, so the recovered log holds only the post-recovery epochs —
  // byte-identical to the tail of the uninterrupted run's log.
  EXPECT_FALSE(actual.report_log.empty());
  EXPECT_TRUE(expected.report_log.ends_with(actual.report_log));
  svc.stop();
}

}  // namespace
}  // namespace p2prep::service
