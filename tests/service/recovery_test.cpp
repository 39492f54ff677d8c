// Crash-recovery tests: kill a service mid-stream, rebuild it from its WAL
// directory, and require that post-recovery state and detection reports are
// byte-identical to an uninterrupted reference run over the same stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "managers/centralized.h"
#include "reputation/summation.h"
#include "service/service.h"
#include "util/rng.h"

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;
using rating::Rating;
using rating::Score;

std::vector<Rating> collusion_workload(std::uint64_t seed, std::size_t n) {
  std::vector<Rating> out;
  util::Rng rng(seed);
  rating::Tick t = 0;
  for (int k = 0; k < 40; ++k) {
    out.push_back({0, 1, Score::kPositive, t++});
    out.push_back({1, 0, Score::kPositive, t++});
    out.push_back({2, 3, Score::kPositive, t++});
    out.push_back({3, 2, Score::kPositive, t++});
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 5; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      out.push_back({rater, ratee,
                     rng.chance(ratee < 4 ? 0.05 : 0.85) ? Score::kPositive
                                                         : Score::kNegative,
                     t++});
    }
  }
  return out;
}

class RecoveryTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 50;
  static constexpr std::size_t kShards = 3;

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("p2prep_recovery_test_" + std::string(::testing::UnitTest::
                                                      GetInstance()
                                                          ->current_test_info()
                                                          ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] ServiceConfig durable_config(
      std::uint64_t checkpoint_every = 0) const {
    ServiceConfig cfg;
    cfg.num_nodes = kN;
    cfg.num_shards = kShards;
    cfg.epoch_ratings = 1u << 30;  // epochs driven by force_epoch()
    cfg.detector_config.positive_fraction_min = 0.8;
    cfg.detector_config.complement_fraction_max = 0.2;
    cfg.detector_config.frequency_min = 20;
    cfg.detector_config.high_rep_threshold = 0.05;
    cfg.wal_dir = dir_.string();
    cfg.checkpoint_every_epochs = checkpoint_every;
    return cfg;
  }

  /// 40 nodes on 2 shards, an epoch every 50 ticks and none by count.
  [[nodiscard]] ServiceConfig ticked_config(
      std::uint64_t checkpoint_every) const {
    ServiceConfig cfg = durable_config(checkpoint_every);
    cfg.num_nodes = 40;
    cfg.num_shards = 2;
    cfg.epoch_ratings = 0;
    cfg.epoch_ticks = 50;
    cfg.detector_config.frequency_min = 5;
    return cfg;
  }

  /// Reference epoch reports: a single centralized manager over the same
  /// stream, detecting at the same positions the service epochs at.
  struct Reference {
    explicit Reference(const core::DetectorConfig& cfg)
        : engine(kN, /*normalize=*/false), manager(kN, engine, cfg) {
      detector = std::make_unique<detect::OptimizedDetector>(cfg);
    }
    std::string run_epoch(std::uint64_t seq) {
      manager.update_reputations();
      const auto report = manager.run_detection(*detector);
      return format_epoch_report("global", seq, report);
    }
    reputation::SummationEngine engine;
    managers::CentralizedManager manager;
    std::unique_ptr<detect::Detector> detector;
  };

  static void expect_matches_reference(const ReputationService& svc,
                                       const Reference& ref) {
    const ServiceSnapshot snap = svc.snapshot();
    for (rating::NodeId i = 0; i < kN; ++i) {
      EXPECT_EQ(snap.reputation(i), ref.engine.detection_reputation(i))
          << "node " << i;
      EXPECT_EQ(snap.suspected(i), ref.manager.detected().contains(i))
          << "node " << i;
    }
  }

  fs::path dir_;
};

TEST_F(RecoveryTest, WalReplayReproducesReportsByteForByte) {
  const ServiceConfig cfg = durable_config();
  const std::vector<Rating> workload = collusion_workload(21, kN);
  const std::size_t half = workload.size() / 2;

  core::DetectorConfig ref_cfg = cfg.detector_config;
  ref_cfg.flag_accomplices = false;  // the service forces this in kGlobal
  Reference ref(ref_cfg);
  std::string expected_log;

  // Phase 1: feed half the stream, run one epoch, then crash. drain()
  // first so the crash point is well-defined (everything fed is in the
  // WAL); crash_stop() discards all in-memory state without flushing.
  {
    ReputationService svc(cfg);
    ASSERT_FALSE(svc.recovered());
    for (std::size_t k = 0; k < half; ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    const std::uint64_t seq = svc.force_epoch();
    svc.drain();
    EXPECT_EQ(seq, 1u);
    svc.crash_stop();
  }
  for (std::size_t k = 0; k < half; ++k) ASSERT_TRUE(ref.manager.ingest(workload[k]));
  expected_log += ref.run_epoch(1);

  // Phase 2: recover and finish the stream.
  {
    ReputationService svc(cfg);
    ASSERT_TRUE(svc.recovered());
    // Replay already regenerated epoch 1's report, byte-identically.
    EXPECT_EQ(svc.report_log(), expected_log);
    expect_matches_reference(svc, ref);
    EXPECT_EQ(svc.metrics().ratings_applied, half);

    for (std::size_t k = half; k < workload.size(); ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    const std::uint64_t seq = svc.force_epoch();
    svc.drain();
    EXPECT_EQ(seq, 2u);

    for (std::size_t k = half; k < workload.size(); ++k)
      ASSERT_TRUE(ref.manager.ingest(workload[k]));
    expected_log += ref.run_epoch(2);

    EXPECT_EQ(svc.report_log(), expected_log);
    expect_matches_reference(svc, ref);
    svc.stop();
  }
}

TEST_F(RecoveryTest, TornWalTailIsDiscardedOnRecovery) {
  const ServiceConfig cfg = durable_config();
  const std::vector<Rating> workload = collusion_workload(22, kN);
  {
    ReputationService svc(cfg);
    for (const Rating& r : workload) ASSERT_TRUE(svc.ingest(r));
    svc.drain();
    svc.crash_stop();
  }
  // Simulate a crash mid-append: garbage half-frame at one shard's tail.
  {
    std::ofstream out(dir_ / "shard-000.wal",
                      std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xde\xad", 6);
  }
  ReputationService svc(cfg);
  ASSERT_TRUE(svc.recovered());
  // The torn bytes held no applied record, so nothing is lost.
  EXPECT_EQ(svc.metrics().ratings_applied, workload.size());
  svc.force_epoch();
  svc.drain();
  EXPECT_GT(svc.metrics().detections_total, 0u);
  svc.stop();
}

TEST_F(RecoveryTest, UnpairedEpochMarkerIsDroppedAndTruncated) {
  const ServiceConfig cfg = durable_config();
  const std::vector<Rating> workload = collusion_workload(23, kN);
  {
    ReputationService svc(cfg);
    for (const Rating& r : workload) ASSERT_TRUE(svc.ingest(r));
    svc.drain();
    svc.crash_stop();
  }
  // A marker that reached only shard 0's WAL before the crash: that epoch
  // never ran and recovery must discard the marker.
  const std::string wal0 = (dir_ / "shard-000.wal").string();
  const WalReadResult before = read_wal(wal0);
  ASSERT_TRUE(before.found);
  {
    WalWriter w = WalWriter::resume(wal0, before.generation,
                                    before.map_epoch, before.num_shards,
                                    before.valid_bytes,
                                    before.records.size());
    w.append(WalRecord::make_marker(1));
  }
  {
    ReputationService svc(cfg);
    ASSERT_TRUE(svc.recovered());
    EXPECT_EQ(svc.metrics().epochs_completed, 0u);
    EXPECT_EQ(svc.metrics().ratings_applied, workload.size());
    svc.stop();
  }
  // The rewritten WAL must not contain the unpaired marker anymore.
  const WalReadResult after = read_wal(wal0);
  ASSERT_TRUE(after.found);
  for (const WalRecord& rec : after.records)
    EXPECT_EQ(rec.kind, WalRecordKind::kRating);
}

TEST_F(RecoveryTest, CheckpointCompactionPreservesByteIdenticalReports) {
  const ServiceConfig cfg = durable_config(/*checkpoint_every=*/1);
  const std::vector<Rating> workload = collusion_workload(24, kN);
  const std::size_t half = workload.size() / 2;
  const std::size_t extra = half + (workload.size() - half) / 2;

  core::DetectorConfig ref_cfg = cfg.detector_config;
  ref_cfg.flag_accomplices = false;
  Reference ref(ref_cfg);

  // Phase 1: one epoch (checkpointed, WAL rotated), then more ratings
  // that land in the rotated WAL, then crash.
  std::uint64_t wal_records_at_crash = 0;
  {
    ReputationService svc(cfg);
    for (std::size_t k = 0; k < half; ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    svc.force_epoch();
    svc.drain();
    EXPECT_EQ(svc.metrics().checkpoints_written, kShards);
    for (std::size_t k = half; k < extra; ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    svc.drain();
    wal_records_at_crash = svc.metrics().wal_records;
    svc.crash_stop();
  }
  // Compaction: the rotated WALs hold only the post-checkpoint ratings.
  EXPECT_EQ(wal_records_at_crash, extra - half);

  for (std::size_t k = 0; k < half; ++k) ASSERT_TRUE(ref.manager.ingest(workload[k]));
  ref.run_epoch(1);

  // Phase 2: recover from checkpoint + rotated WAL; finish the stream.
  {
    ReputationService svc(cfg);
    ASSERT_TRUE(svc.recovered());
    EXPECT_EQ(svc.metrics().ratings_applied, extra);
    // Epoch 1 was restored from the checkpoint, not replayed, so the
    // recovered log is empty; post-recovery reports must still match the
    // uninterrupted reference byte for byte.
    EXPECT_EQ(svc.report_log(), "");

    // (No state comparison here: between epochs the reference engine's
    // live sums already include the replayed ratings while both published
    // views don't update until the next epoch.)
    for (std::size_t k = half; k < extra; ++k)
      ASSERT_TRUE(ref.manager.ingest(workload[k]));

    for (std::size_t k = extra; k < workload.size(); ++k) {
      ASSERT_TRUE(svc.ingest(workload[k]));
      ASSERT_TRUE(ref.manager.ingest(workload[k]));
    }
    const std::uint64_t seq = svc.force_epoch();
    svc.drain();
    EXPECT_EQ(seq, 2u);
    EXPECT_EQ(svc.report_log(), ref.run_epoch(2));
    expect_matches_reference(svc, ref);
    svc.stop();
  }
}

/// One rating per tick over ticks [1, last] on `n` nodes: nodes 0 and 1
/// rate each other every other tick, the rest is organic traffic. The
/// tick cadence, not the rating count, decides where epochs fall.
std::vector<Rating> ticked_workload(rating::Tick last, std::size_t n) {
  std::vector<Rating> out;
  util::Rng rng(last);
  for (rating::Tick t = 1; t <= last; ++t) {
    if (t % 4 < 2) {
      out.push_back({static_cast<rating::NodeId>(t % 2),
                     static_cast<rating::NodeId>(1 - t % 2),
                     Score::kPositive, t});
      continue;
    }
    const auto rater = static_cast<rating::NodeId>(rng.next_below(n));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
    if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
    out.push_back({rater, ratee,
                   rng.chance(ratee < 2 ? 0.05 : 0.85) ? Score::kPositive
                                                       : Score::kNegative,
                   t});
  }
  return out;
}

// Epochs every 50 ticks, a checkpoint at every epoch and a graceful stop
// after tick 170: the restarted service resumes the tick cadence from the
// checkpoints (next epoch at tick 200, not at its first rating), so the
// reports before the stop plus those after the restart are the
// uninterrupted run's.
TEST_F(RecoveryTest, TickCadenceSurvivesRestartFromCheckpoint) {
  const ServiceConfig cfg = ticked_config(/*checkpoint_every=*/1);
  const std::vector<Rating> workload = ticked_workload(400, cfg.num_nodes);
  constexpr std::size_t kStopAfter = 170;  // ticks 1..170

  std::string uninterrupted;
  {
    ServiceConfig ref_cfg = cfg;
    ref_cfg.wal_dir = (dir_ / "reference").string();
    ReputationService svc(ref_cfg);
    for (const Rating& r : workload) ASSERT_TRUE(svc.ingest(r));
    svc.drain();
    uninterrupted = svc.report_log();
    EXPECT_EQ(svc.metrics().epochs_completed, 8u);
    EXPECT_NE(uninterrupted.find("pair(0, 1)"), std::string::npos);
    svc.stop();
  }

  std::string restarted;
  {
    ReputationService svc(cfg);
    for (std::size_t k = 0; k < kStopAfter; ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    svc.drain();
    EXPECT_EQ(svc.metrics().epochs_completed, 3u);
    restarted = svc.report_log();
    svc.stop();
  }
  {
    ReputationService svc(cfg);
    ASSERT_TRUE(svc.recovered());
    EXPECT_EQ(svc.report_log(), "");  // every epoch came from a checkpoint
    for (std::size_t k = kStopAfter; k < workload.size(); ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    svc.drain();
    restarted += svc.report_log();
    svc.stop();
  }
  EXPECT_EQ(restarted, uninterrupted);
}

// A forced epoch anchors the tick cadence at the highest tick routed
// before it, live and on replay alike: epochs at ticks 50, 100, forced at
// 120, then 170, 220, ... whether or not the service restarted at 130.
TEST_F(RecoveryTest, ForcedEpochAnchorsTickCadenceOnReplay) {
  const ServiceConfig cfg = ticked_config(/*checkpoint_every=*/0);
  const std::vector<Rating> workload = ticked_workload(400, cfg.num_nodes);
  constexpr std::size_t kForceAfter = 120;  // ticks 1..120
  constexpr std::size_t kStopAfter = 130;

  std::string uninterrupted;
  {
    ServiceConfig ref_cfg = cfg;
    ref_cfg.wal_dir = (dir_ / "reference").string();
    ReputationService svc(ref_cfg);
    for (std::size_t k = 0; k < workload.size(); ++k) {
      ASSERT_TRUE(svc.ingest(workload[k]));
      if (k + 1 == kForceAfter) svc.force_epoch();
    }
    svc.drain();
    uninterrupted = svc.report_log();
    EXPECT_EQ(svc.metrics().epochs_completed, 8u);
    EXPECT_NE(uninterrupted.find("pair(0, 1)"), std::string::npos);
    svc.stop();
  }

  {
    ReputationService svc(cfg);
    for (std::size_t k = 0; k < kStopAfter; ++k) {
      ASSERT_TRUE(svc.ingest(workload[k]));
      if (k + 1 == kForceAfter) svc.force_epoch();
    }
    svc.drain();
    svc.stop();
  }
  ReputationService svc(cfg);
  ASSERT_TRUE(svc.recovered());
  EXPECT_EQ(svc.metrics().epochs_completed, 3u);  // replayed from the WAL
  for (std::size_t k = kStopAfter; k < workload.size(); ++k)
    ASSERT_TRUE(svc.ingest(workload[k]));
  svc.drain();
  EXPECT_EQ(svc.report_log(), uninterrupted);
  svc.stop();
}

TEST_F(RecoveryTest, ConfigMismatchWithStoredStateThrows) {
  {
    ReputationService svc(durable_config());
    ASSERT_TRUE(svc.ingest({1, 2, Score::kPositive, 0}));
    svc.drain();
    svc.stop();
  }
  // num_shards is deliberately NOT enforced (recovery adopts the stored
  // shard-map width after a resize), but num_nodes still is.
  ServiceConfig other = durable_config();
  other.num_nodes = kN + 1;
  EXPECT_THROW(ReputationService svc(other), std::runtime_error);

  // Every epoch is global: a directory written under per-shard scope
  // replays another epoch protocol, so it is refused too.
  const fs::path meta = dir_ / "service.meta";
  std::string text;
  {
    std::ifstream in(meta);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string global_line = "scope global\n";
  const auto at = text.find(global_line);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, global_line.size(), "scope per_shard\n");
  std::ofstream(meta, std::ios::trunc) << text;
  EXPECT_THROW(ReputationService svc(durable_config()), std::runtime_error);
}

TEST_F(RecoveryTest, ConfigShardCountIsIgnoredWhenStateExists) {
  const std::vector<Rating> workload = collusion_workload(26, kN);
  {
    ReputationService svc(durable_config());
    for (const Rating& r : workload) ASSERT_TRUE(svc.ingest(r));
    svc.force_epoch();
    svc.drain();
    svc.stop();
  }
  // Reopening with a different configured count adopts the stored width.
  ServiceConfig other = durable_config();
  other.num_shards = kShards + 2;
  ReputationService svc(other);
  ASSERT_TRUE(svc.recovered());
  EXPECT_EQ(svc.num_shards(), kShards);
  EXPECT_EQ(svc.metrics().ratings_applied, workload.size());
  svc.stop();
}

TEST_F(RecoveryTest, RecoveryAdoptsResizedShardCount) {
  const std::vector<Rating> workload = collusion_workload(27, kN);
  const std::size_t half = workload.size() / 2;
  {
    ReputationService svc(durable_config());
    for (std::size_t k = 0; k < half; ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    svc.drain();
    const ResizeStats rs = svc.resize(kShards + 2);
    EXPECT_GT(rs.keys_moved, 0u);
    for (std::size_t k = half; k < workload.size(); ++k)
      ASSERT_TRUE(svc.ingest(workload[k]));
    svc.force_epoch();
    svc.drain();
    svc.stop();
  }
  // The config still says kShards; the stored map stamps say kShards + 2.
  ReputationService svc(durable_config());
  ASSERT_TRUE(svc.recovered());
  EXPECT_EQ(svc.num_shards(), kShards + 2);
  EXPECT_EQ(svc.metrics().ratings_applied, workload.size());
  EXPECT_EQ(svc.metrics().shard_map_epoch, 1u);
  // Recovery publishes the one global epoch the shards closed.
  EXPECT_EQ(svc.snapshot().epoch(), 1u);
  EXPECT_EQ(svc.snapshot().epoch(), svc.metrics().epochs_completed);
  svc.stop();
}

TEST_F(RecoveryTest, CheckpointWithOutOfRangeIdsIsRefused) {
  constexpr std::size_t kSmall = 16;
  ServiceConfig cfg = durable_config(/*checkpoint_every=*/1);
  cfg.num_nodes = kSmall;
  {
    ReputationService svc(cfg);
    for (const Rating& r : collusion_workload(26, kSmall))
      ASSERT_TRUE(svc.ingest(r));
    svc.force_epoch();
    svc.drain();
    ASSERT_EQ(svc.metrics().checkpoints_written, kShards);
    svc.stop();
  }
  const std::string ckpt_file = (dir_ / "shard-000.ckpt").string();
  const std::optional<ShardCheckpoint> good = read_checkpoint(ckpt_file);
  ASSERT_TRUE(good.has_value());

  // CRC-valid, well-formed, and naming node 1,000,000,000 of 16.
  ShardCheckpoint hostile = *good;
  hostile.cells.push_back({1'000'000'000u, 1, rating::PairStats{1, 1, 0}});
  ASSERT_TRUE(write_checkpoint(ckpt_file, hostile));
  EXPECT_THROW(ReputationService{cfg}, std::runtime_error);

  // The cluster's state-pull path refuses the same blob, keeping the
  // shard's whole state: its checkpoint bytes do not move.
  const std::optional<ShardCheckpoint> pulled =
      parse_checkpoint(encode_checkpoint(hostile));
  ASSERT_TRUE(pulled.has_value());
  ServiceConfig shard_cfg = cfg;
  shard_cfg.wal_dir.clear();
  ServiceShard shard(0, shard_cfg);
  shard.reload_from(*good);
  const auto state = [&shard] {
    return encode_checkpoint(*shard.make_checkpoint());
  };
  const std::string before = state();
  ASSERT_FALSE(good->cells.empty());
  EXPECT_THROW(shard.reload_from(*pulled), std::runtime_error);
  EXPECT_EQ(state(), before);

  // Every id field is checked: rater, suppressed and detected too. So is
  // the engine blob: one from an 8-node shard names no bad id but does
  // not load into a 16-node engine.
  ShardCheckpoint bad_rater = *good;
  bad_rater.cells.push_back({1, kSmall, rating::PairStats{1, 1, 0}});
  ShardCheckpoint bad_suppressed = *good;
  bad_suppressed.suppressed.push_back(kSmall);
  ShardCheckpoint bad_detected = *good;
  bad_detected.detected.push_back(kSmall);
  ServiceConfig eight_cfg = shard_cfg;
  eight_cfg.num_nodes = 8;
  const ServiceShard eight(0, eight_cfg);
  ShardCheckpoint bad_engine = *good;
  bad_engine.engine_blob = eight.make_checkpoint()->engine_blob;
  for (const ShardCheckpoint* bad :
       {&bad_rater, &bad_suppressed, &bad_detected, &bad_engine}) {
    EXPECT_THROW(shard.reload_from(*bad), std::runtime_error);
    EXPECT_EQ(state(), before);
    ServiceShard fresh(0, shard_cfg);
    EXPECT_THROW(fresh.restore(*bad), std::runtime_error);
  }
}

// make_checkpoint writes each cell once, row-major in ascending rater
// order, and never a self-rating. A CRC-valid checkpoint that repeats a
// cell, holds a diagonal cell or breaks the order is refused by restore()
// and by the cluster's reload_from() before any state moves; accepted, a
// repeated cell would store two cells for one rater.
TEST_F(RecoveryTest, CheckpointWithDuplicateOrDiagonalCellsIsRefused) {
  constexpr std::size_t kSmall = 16;
  ServiceConfig cfg = durable_config(/*checkpoint_every=*/1);
  cfg.num_nodes = kSmall;
  cfg.num_shards = 1;
  {
    ReputationService svc(cfg);
    for (const Rating& r : collusion_workload(27, kSmall))
      ASSERT_TRUE(svc.ingest(r));
    svc.force_epoch();
    svc.drain();
    svc.stop();
  }
  const std::optional<ShardCheckpoint> good =
      read_checkpoint((dir_ / "shard-000.ckpt").string());
  ASSERT_TRUE(good.has_value());
  ASSERT_GE(good->cells.size(), 2u);
  const CheckpointCell first = good->cells[0];
  ASSERT_EQ(good->cells[1].ratee, first.ratee);  // a row of two cells

  ServiceConfig shard_cfg = cfg;
  shard_cfg.wal_dir.clear();
  ServiceShard shard(0, shard_cfg);
  shard.reload_from(*good);
  const auto state = [&shard] {
    return encode_checkpoint(*shard.make_checkpoint());
  };
  const std::string before = state();

  ShardCheckpoint duplicate = *good;
  duplicate.cells.insert(duplicate.cells.begin() + 1, first);
  // The diagonal cell sorts into place, so only its diagonal is wrong.
  ShardCheckpoint diagonal = *good;
  const CheckpointCell self{first.ratee, first.ratee,
                            rating::PairStats{1, 1, 0}};
  diagonal.cells.insert(
      std::lower_bound(diagonal.cells.begin(), diagonal.cells.end(), self,
                       [](const CheckpointCell& a, const CheckpointCell& b) {
                         return std::pair(a.ratee, a.rater) <
                                std::pair(b.ratee, b.rater);
                       }),
      self);
  ShardCheckpoint unordered = *good;
  std::swap(unordered.cells[0], unordered.cells[1]);
  for (const ShardCheckpoint* bad : {&duplicate, &diagonal, &unordered}) {
    const std::optional<ShardCheckpoint> pulled =
        parse_checkpoint(encode_checkpoint(*bad));
    ASSERT_TRUE(pulled.has_value());
    EXPECT_THROW(shard.reload_from(*pulled), std::runtime_error);
    EXPECT_EQ(state(), before);
    ServiceShard fresh(0, shard_cfg);
    EXPECT_THROW(fresh.restore(*pulled), std::runtime_error);
  }
}

/// What restoring the service over dir_ throws (empty when nothing).
std::string restore_error(const ServiceConfig& cfg) {
  try {
    ReputationService svc(cfg);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

// A checkpoint written by an 8-node service is well-formed and names only
// ids < 64, but its engine state is sized for 8 nodes: a 64-node service
// must refuse it instead of restoring a short engine.
TEST_F(RecoveryTest, EngineStateOfAnotherNodeCountIsRefused) {
  ServiceConfig small = durable_config(/*checkpoint_every=*/1);
  small.num_nodes = 8;
  small.num_shards = 1;
  {
    ReputationService svc(small);
    for (const Rating& r : collusion_workload(28, 8))
      ASSERT_TRUE(svc.ingest(r));
    svc.force_epoch();
    svc.drain();
    svc.stop();
  }
  const fs::path small_dir = dir_.string() + "_small";
  fs::remove_all(small_dir);
  fs::rename(dir_, small_dir);

  ServiceConfig big = durable_config(/*checkpoint_every=*/1);
  big.num_nodes = 64;
  big.num_shards = 1;
  {
    ReputationService svc(big);
    for (const Rating& r : collusion_workload(28, 64))
      ASSERT_TRUE(svc.ingest(r));
    svc.force_epoch();
    svc.drain();
    svc.stop();
  }
  fs::copy_file(small_dir / "shard-000.ckpt", dir_ / "shard-000.ckpt",
                fs::copy_options::overwrite_existing);
  fs::remove_all(small_dir);
  EXPECT_NE(restore_error(big).find("malformed engine state"),
            std::string::npos);
}

// A CRC-valid checkpoint whose engine blob claims 2^40 nodes is refused
// before anything is sized by that count.
TEST_F(RecoveryTest, EngineStateClaimingHugeNodeCountIsRefused) {
  const ServiceConfig cfg = durable_config(/*checkpoint_every=*/1);
  {
    ReputationService svc(cfg);
    for (const Rating& r : collusion_workload(29, kN))
      ASSERT_TRUE(svc.ingest(r));
    svc.force_epoch();
    svc.drain();
    svc.stop();
  }
  const std::string ckpt_file = (dir_ / "shard-000.ckpt").string();
  std::optional<ShardCheckpoint> ckpt = read_checkpoint(ckpt_file);
  ASSERT_TRUE(ckpt.has_value());
  ASSERT_GE(ckpt->engine_blob.size(), 8u);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i)  // the blob's little-endian node count
    ckpt->engine_blob[static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xff);
  ASSERT_TRUE(write_checkpoint(ckpt_file, *ckpt));
  EXPECT_NE(restore_error(cfg).find("malformed engine state"),
            std::string::npos);
}

}  // namespace
}  // namespace p2prep::service
