// Dense-oracle differential tests at the service layer: the same rating
// stream replayed through ReputationService with dense and sparse shard
// matrices must produce byte-identical epoch detection reports, published
// reputations and suspected sets — at 1 and 4 shards and across WAL
// crash-recovery. Because service.meta records the topology but
// deliberately NOT the matrix backend, a durable directory written under
// one backend must recover under the other; that contract is tested here
// too. The ServiceBackendDifferential suites run under TSan alongside
// ServiceConcurrency (tools/run_static_analysis.sh), whose stress drives
// the default sparse backend's concurrent epoch path.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "rating/matrix.h"
#include "service/service.h"
#include "util/rng.h"

namespace p2prep::service {
namespace {

namespace fs = std::filesystem;
using rating::MatrixBackend;
using rating::NodeId;
using rating::Rating;
using rating::Score;

constexpr std::size_t kN = 60;

/// Colluding pairs (0,1) and (2,3) boosting each other, plus seeded organic
/// traffic that rates the colluders mostly negatively.
std::vector<Rating> backend_workload(std::uint64_t seed) {
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

ServiceConfig backend_config(MatrixBackend backend, std::size_t shards) {
  ServiceConfig cfg;
  cfg.num_nodes = kN;
  cfg.num_shards = shards;
  cfg.epoch_ratings = 1u << 30;  // epochs driven by force_epoch()
  cfg.matrix_backend = backend;
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
  std::uint64_t detections_total = 0;
  std::uint64_t matrix_bytes = 0;

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
  const ServiceMetrics m = svc.metrics();
  out.detections_total = m.detections_total;
  out.matrix_bytes = m.matrix_bytes;
  return out;
}

/// Replays the workload with two force_epoch() detection points and
/// captures the observable end state.
RunResult replay(const ServiceConfig& cfg, const std::vector<Rating>& load) {
  ReputationService svc(cfg);
  const std::size_t half = load.size() / 2;
  for (std::size_t k = 0; k < half; ++k) EXPECT_TRUE(svc.ingest(load[k]));
  svc.force_epoch();
  svc.drain();
  for (std::size_t k = half; k < load.size(); ++k)
    EXPECT_TRUE(svc.ingest(load[k]));
  svc.force_epoch();
  svc.drain();
  RunResult out = capture(svc);
  svc.stop();
  return out;
}

/// Everything except the footprint must match across backends; the
/// footprint is the one intended difference (sparse strictly smaller once
/// any ratings landed).
void expect_equivalent(const RunResult& dense, const RunResult& sparse) {
  EXPECT_EQ(dense.report_log, sparse.report_log);
  EXPECT_EQ(dense.reputations, sparse.reputations);
  EXPECT_EQ(dense.suspected, sparse.suspected);
  EXPECT_EQ(dense.detections_total, sparse.detections_total);
  EXPECT_LT(sparse.matrix_bytes, dense.matrix_bytes);
}

TEST(ServiceBackendDifferentialTest, GlobalScopeIdenticalAtOneShard) {
  const auto load = backend_workload(31);
  expect_equivalent(replay(backend_config(MatrixBackend::kDense, 1), load),
                    replay(backend_config(MatrixBackend::kSparse, 1), load));
}

TEST(ServiceBackendDifferentialTest, GlobalScopeIdenticalAtFourShards) {
  const auto load = backend_workload(32);
  expect_equivalent(replay(backend_config(MatrixBackend::kDense, 4), load),
                    replay(backend_config(MatrixBackend::kSparse, 4), load));
}

class ServiceBackendDifferentialRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("p2prep_backend_diff_" + std::string(::testing::UnitTest::
                                                     GetInstance()
                                                         ->current_test_info()
                                                         ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] ServiceConfig durable(MatrixBackend backend) const {
    ServiceConfig cfg = backend_config(backend, 3);
    cfg.wal_dir = dir_.string();
    return cfg;
  }

  /// Feeds half the stream, runs one epoch, crashes; returns the
  /// pre-crash observable state.
  RunResult run_until_crash(const ServiceConfig& cfg,
                            const std::vector<Rating>& load) {
    ReputationService svc(cfg);
    for (std::size_t k = 0; k < load.size() / 2; ++k)
      EXPECT_TRUE(svc.ingest(load[k]));
    svc.force_epoch();
    svc.drain();
    RunResult out = capture(svc);
    svc.crash_stop();
    return out;
  }

  /// Recovers under `cfg`, finishes the stream with a second epoch and
  /// returns the end state.
  RunResult recover_and_finish(const ServiceConfig& cfg,
                               const std::vector<Rating>& load,
                               const RunResult& before_crash) {
    ReputationService svc(cfg);
    EXPECT_TRUE(svc.recovered());
    // WAL replay must regenerate epoch 1's report byte-for-byte.
    EXPECT_EQ(svc.report_log(), before_crash.report_log);
    for (std::size_t k = load.size() / 2; k < load.size(); ++k)
      EXPECT_TRUE(svc.ingest(load[k]));
    svc.force_epoch();
    svc.drain();
    RunResult out = capture(svc);
    svc.stop();
    return out;
  }

  fs::path dir_;
};

TEST_F(ServiceBackendDifferentialRecoveryTest,
       SparseRecoveryMatchesDenseRecovery) {
  const auto load = backend_workload(41);
  // Dense write + dense recovery.
  const RunResult dense_crash =
      run_until_crash(durable(MatrixBackend::kDense), load);
  const RunResult dense_end =
      recover_and_finish(durable(MatrixBackend::kDense), load, dense_crash);
  fs::remove_all(dir_);
  // Sparse write + sparse recovery over the same stream.
  const RunResult sparse_crash =
      run_until_crash(durable(MatrixBackend::kSparse), load);
  const RunResult sparse_end =
      recover_and_finish(durable(MatrixBackend::kSparse), load, sparse_crash);
  expect_equivalent(dense_crash, sparse_crash);
  expect_equivalent(dense_end, sparse_end);
}

TEST_F(ServiceBackendDifferentialRecoveryTest,
       DenseWalRecoversUnderSparseBackend) {
  const auto load = backend_workload(42);
  const RunResult crash = run_until_crash(durable(MatrixBackend::kDense), load);
  // The durable directory does not record the backend: a dense-written WAL
  // recovers under a sparse config with identical observable state.
  const RunResult end =
      recover_and_finish(durable(MatrixBackend::kSparse), load, crash);
  EXPECT_EQ(end.suspected[0], true);
  EXPECT_EQ(end.suspected[1], true);
}

TEST_F(ServiceBackendDifferentialRecoveryTest,
       SparseCheckpointRecoversUnderDenseBackend) {
  const auto load = backend_workload(43);
  // Checkpoint every epoch so recovery exercises the checkpoint-cell
  // restore path (for_each_nonzero_cell ordering) rather than pure replay.
  ServiceConfig sparse_cfg = durable(MatrixBackend::kSparse);
  sparse_cfg.checkpoint_every_epochs = 1;
  ServiceConfig dense_cfg = durable(MatrixBackend::kDense);
  dense_cfg.checkpoint_every_epochs = 1;

  {
    ReputationService svc(sparse_cfg);
    for (std::size_t k = 0; k < load.size() / 2; ++k)
      EXPECT_TRUE(svc.ingest(load[k]));
    svc.force_epoch();
    svc.drain();
    EXPECT_GT(svc.metrics().checkpoints_written, 0u);
    svc.crash_stop();
  }
  ReputationService svc(dense_cfg);
  ASSERT_TRUE(svc.recovered());
  for (std::size_t k = load.size() / 2; k < load.size(); ++k)
    EXPECT_TRUE(svc.ingest(load[k]));
  svc.force_epoch();
  svc.drain();
  const RunResult end = capture(svc);
  svc.stop();

  // Reference: the same stream uninterrupted on the dense backend.
  fs::remove_all(dir_);
  ReputationService ref(dense_cfg);
  for (std::size_t k = 0; k < load.size() / 2; ++k)
    EXPECT_TRUE(ref.ingest(load[k]));
  ref.force_epoch();
  ref.drain();
  for (std::size_t k = load.size() / 2; k < load.size(); ++k)
    EXPECT_TRUE(ref.ingest(load[k]));
  ref.force_epoch();
  ref.drain();
  const RunResult expected = capture(ref);
  ref.stop();

  EXPECT_EQ(end.reputations, expected.reputations);
  EXPECT_EQ(end.suspected, expected.suspected);
}

}  // namespace
}  // namespace p2prep::service
