// Dense-oracle differential tests for the sparse matrix backend.
//
// The dense RatingMatrix charges exactly the paper's costs and has been
// validated against the paper's figures, so it serves as the oracle: for
// randomized rating traces (skewed organic traffic with colluding pairs
// injected per Fig. 3), the sparse backend must reproduce the dense
// matrix's state bit for bit — reputations, live-row flags, window totals,
// frequent-rater aggregates, every cell — and every detector (Basic,
// Optimized, Group) plus the incremental manager must emit byte-identical
// reports on top of it. Verdict-affecting sums are integer accumulations,
// so the sparse rows' unordered iteration cannot perturb them; these tests
// prove that end to end across 100 seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/group_detector.h"
#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "managers/incremental.h"
#include "rating/matrix.h"
#include "rating/store.h"
#include "reputation/summation.h"
#include "service/shard.h"
#include "tests/differential/trace_gen.h"
#include "util/rng.h"

namespace p2prep {
namespace {

using rating::MatrixBackend;
using rating::NodeId;
using rating::PairStats;
using rating::Rating;
using rating::RatingMatrix;
using rating::RatingStore;
using rating::Score;

using testgen::Trace;
using testgen::config_for;
using testgen::make_trace;
using testgen::reputations_of;

void expect_matrices_identical(const RatingMatrix& dense,
                               const RatingMatrix& sparse) {
  ASSERT_EQ(dense.size(), sparse.size());
  EXPECT_EQ(dense.high_reputed_count(), sparse.high_reputed_count());
  EXPECT_EQ(dense.frequency_threshold(), sparse.frequency_threshold());
  for (NodeId i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense.high_reputed(i), sparse.high_reputed(i)) << "row " << i;
    EXPECT_EQ(dense.global_reputation(i), sparse.global_reputation(i))
        << "row " << i;
    EXPECT_EQ(dense.totals(i), sparse.totals(i)) << "row " << i;
    EXPECT_EQ(dense.frequent_totals(i), sparse.frequent_totals(i))
        << "row " << i;
    EXPECT_EQ(dense.window_reputation(i), sparse.window_reputation(i))
        << "row " << i;
    for (NodeId j = 0; j < dense.size(); ++j) {
      EXPECT_EQ(dense.cell(i, j), sparse.cell(i, j))
          << "cell (" << i << ", " << j << ")";
      EXPECT_EQ(dense.cell(i, j).total > 0, sparse.cell(i, j).total > 0)
          << "cell (" << i << ", " << j << ")";
    }
    // The deterministic enumeration must agree element for element.
    std::vector<std::pair<NodeId, PairStats>> dense_cells;
    std::vector<std::pair<NodeId, PairStats>> sparse_cells;
    dense.for_each_nonzero_cell(i, [&](NodeId k, const PairStats& s) {
      dense_cells.emplace_back(k, s);
    });
    sparse.for_each_nonzero_cell(i, [&](NodeId k, const PairStats& s) {
      sparse_cells.emplace_back(k, s);
    });
    EXPECT_EQ(dense_cells, sparse_cells) << "row " << i;
  }
}

void expect_reports_identical(const core::DetectionReport& dense,
                              const core::DetectionReport& sparse) {
  ASSERT_EQ(dense.pairs.size(), sparse.pairs.size());
  for (std::size_t k = 0; k < dense.pairs.size(); ++k) {
    const core::PairEvidence& a = dense.pairs[k];
    const core::PairEvidence& b = sparse.pairs[k];
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_EQ(a.ratings_to_first, b.ratings_to_first);
    EXPECT_EQ(a.ratings_to_second, b.ratings_to_second);
    EXPECT_EQ(a.positive_fraction_first, b.positive_fraction_first);
    EXPECT_EQ(a.positive_fraction_second, b.positive_fraction_second);
    EXPECT_EQ(a.complement_fraction_first, b.complement_fraction_first);
    EXPECT_EQ(a.complement_fraction_second, b.complement_fraction_second);
    EXPECT_EQ(a.global_rep_first, b.global_rep_first);
    EXPECT_EQ(a.global_rep_second, b.global_rep_second);
  }
  EXPECT_EQ(dense.colluders(), sparse.colluders());
  // The operator-facing text — evidence lines included — must be
  // byte-identical (costs are intentionally excluded from the report
  // text: the sparse backend's cheaper row scans are the one permitted
  // difference).
  EXPECT_EQ(service::format_epoch_report("diff", 1, dense),
            service::format_epoch_report("diff", 1, sparse));
}

void expect_group_reports_identical(const core::GroupDetectionReport& dense,
                                    const core::GroupDetectionReport& sparse) {
  ASSERT_EQ(dense.groups.size(), sparse.groups.size());
  for (std::size_t g = 0; g < dense.groups.size(); ++g) {
    const core::CollusionGroup& a = dense.groups[g];
    const core::CollusionGroup& b = sparse.groups[g];
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.outside_positive_fraction, b.outside_positive_fraction);
    EXPECT_EQ(a.outside_ratings, b.outside_ratings);
    EXPECT_EQ(a.inside_ratings, b.inside_ratings);
    EXPECT_EQ(a.to_string(), b.to_string());
  }
  EXPECT_EQ(dense.colluders(), sparse.colluders());
}

class MatrixBackendDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixBackendDifferentialTest, SnapshotBuildMatchesDenseOracle) {
  const std::uint64_t seed = GetParam();
  const Trace trace = make_trace(seed);
  RatingStore store(trace.n);
  for (const Rating& r : trace.ratings) ASSERT_TRUE(store.ingest(r));
  const std::vector<double> reps = reputations_of(store);
  const core::DetectorConfig cfg = config_for(seed);

  const RatingMatrix dense =
      RatingMatrix::build(store, reps, cfg.high_rep_threshold,
                          cfg.frequency_min, MatrixBackend::kDense);
  const RatingMatrix sparse =
      RatingMatrix::build(store, reps, cfg.high_rep_threshold,
                          cfg.frequency_min, MatrixBackend::kSparse);
  EXPECT_EQ(dense.backend(), MatrixBackend::kDense);
  EXPECT_EQ(sparse.backend(), MatrixBackend::kSparse);
  expect_matrices_identical(dense, sparse);

  const core::BasicCollusionDetector basic(cfg);
  const core::OptimizedCollusionDetector optimized(cfg);
  const core::GroupCollusionDetector group(cfg);
  expect_reports_identical(basic.detect(dense), basic.detect(sparse));
  expect_reports_identical(optimized.detect(dense), optimized.detect(sparse));
  expect_group_reports_identical(group.detect(dense), group.detect(sparse));

  // Without precomputed frequent aggregates the Optimized joint-complement
  // path falls back to a full row recompute — the other sparse row-scan
  // code path; it must agree with the dense oracle too.
  const RatingMatrix dense_recompute = RatingMatrix::build(
      store, reps, cfg.high_rep_threshold, 0, MatrixBackend::kDense);
  const RatingMatrix sparse_recompute = RatingMatrix::build(
      store, reps, cfg.high_rep_threshold, 0, MatrixBackend::kSparse);
  expect_reports_identical(optimized.detect(dense_recompute),
                           optimized.detect(sparse_recompute));
}

TEST_P(MatrixBackendDifferentialTest, IncrementalManagerMatchesDenseOracle) {
  const std::uint64_t seed = GetParam();
  const Trace trace = make_trace(seed);
  const core::DetectorConfig cfg = config_for(seed);

  reputation::SummationEngine dense_engine(trace.n, /*normalize=*/false);
  reputation::SummationEngine sparse_engine(trace.n, /*normalize=*/false);
  managers::IncrementalCentralizedManager dense_mgr(
      trace.n, dense_engine, cfg, MatrixBackend::kDense);
  managers::IncrementalCentralizedManager sparse_mgr(
      trace.n, sparse_engine, cfg, MatrixBackend::kSparse);
  const core::OptimizedCollusionDetector detector(cfg);

  const auto run_epoch = [&](managers::IncrementalCentralizedManager& mgr,
                             std::uint64_t epoch) {
    mgr.update_reputations();
    const core::DetectionReport report = mgr.run_detection(
        detector, managers::CentralizedManager::SuppressionMode::kReset);
    return service::format_epoch_report("diff", epoch, report);
  };

  // Window 1: first half of the stream.
  const std::size_t half = trace.ratings.size() / 2;
  for (std::size_t k = 0; k < half; ++k) {
    ASSERT_TRUE(dense_mgr.ingest(trace.ratings[k]));
    ASSERT_TRUE(sparse_mgr.ingest(trace.ratings[k]));
  }
  EXPECT_EQ(run_epoch(dense_mgr, 1), run_epoch(sparse_mgr, 1));
  expect_matrices_identical(dense_mgr.matrix(), sparse_mgr.matrix());

  // Window 2: suppression from window 1 carries over identically.
  dense_mgr.reset_window();
  sparse_mgr.reset_window();
  for (std::size_t k = half; k < trace.ratings.size(); ++k) {
    ASSERT_TRUE(dense_mgr.ingest(trace.ratings[k]));
    ASSERT_TRUE(sparse_mgr.ingest(trace.ratings[k]));
  }
  EXPECT_EQ(run_epoch(dense_mgr, 2), run_epoch(sparse_mgr, 2));
  expect_matrices_identical(dense_mgr.matrix(), sparse_mgr.matrix());

  std::vector<NodeId> dense_detected(dense_mgr.detected().begin(),
                                     dense_mgr.detected().end());
  std::vector<NodeId> sparse_detected(sparse_mgr.detected().begin(),
                                      sparse_mgr.detected().end());
  std::sort(dense_detected.begin(), dense_detected.end());
  std::sort(sparse_detected.begin(), sparse_detected.end());
  EXPECT_EQ(dense_detected, sparse_detected);
  for (NodeId i = 0; i < trace.n; ++i) {
    EXPECT_EQ(dense_engine.detection_reputation(i),
              sparse_engine.detection_reputation(i))
        << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixBackendDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 100));

// Footprint regression: a 10k-node matrix at 1% density must cost the
// sparse backend less than 5% of what the dense backend would allocate.
// The dense side is the analytic oracle (dense_footprint_bytes) —
// actually allocating it would be ~1.2 GB.
TEST(MatrixBackendMemoryTest, Sparse10kOnePercentUnderFivePercentOfDense) {
  constexpr std::size_t kNodes = 10000;
  constexpr std::size_t kCells = kNodes * kNodes / 100;
  RatingMatrix sparse(kNodes, MatrixBackend::kSparse);
  util::Rng rng(7);
  for (std::size_t c = 0; c < kCells; ++c) {
    const auto ratee = static_cast<NodeId>(rng.next_below(kNodes));
    auto rater = static_cast<NodeId>(rng.next_below(kNodes));
    if (rater == ratee) rater = static_cast<NodeId>((rater + 1) % kNodes);
    sparse.add_rating(ratee, rater, Score::kPositive);
  }
  const std::size_t dense_bytes = RatingMatrix::dense_footprint_bytes(kNodes);
  EXPECT_LT(sparse.approx_memory_bytes(), dense_bytes / 20)
      << "sparse bytes: " << sparse.approx_memory_bytes()
      << ", dense oracle: " << dense_bytes;
}

}  // namespace
}  // namespace p2prep
