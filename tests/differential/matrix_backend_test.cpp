// Reference-model differential tests for the rating matrix.
//
// For randomized rating traces (skewed organic traffic with colluding
// pairs injected per Fig. 3), every matrix — filled rating by rating, or
// maintained by the centralized manager, under both scan-cost rules —
// must read exactly as the
// test-only reference model (tests/rating/reference_matrix.h): an ordered
// map of cells that recomputes totals and frequent aggregates from its own
// cells. Every detector (Basic, Optimized, Group) plus the incremental
// manager must then emit byte-identical reports under both rules, since
// the rule changes what a row scan charges and nothing a verdict reads.
// The suite and test names predate the reference model, when a dense
// n x n matrix was the oracle and a window snapshot was built from a
// separate rating store; the reference model answers every cell of the
// same n x n grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/basic_detector.h"
#include "detect/group_detector.h"
#include "detect/optimized_detector.h"
#include "managers/centralized.h"
#include "rating/matrix.h"
#include "reputation/summation.h"
#include "service/shard.h"
#include "tests/differential/trace_gen.h"
#include "tests/rating/reference_matrix.h"
#include "util/rng.h"

namespace p2prep {
namespace {

using rating::NodeId;
using rating::PairStats;
using rating::Rating;
using rating::RatingMatrix;
using rating::ScanCost;
using rating::Score;

using testgen::Trace;
using testgen::config_for;
using testgen::make_trace;
using testgen::reputations_of;
using testgen::window_matrix;
using testref::ReferenceMatrix;
using testref::expect_matches;

void expect_reports_identical(const core::DetectionReport& full,
                              const core::DetectionReport& stored) {
  ASSERT_EQ(full.pairs.size(), stored.pairs.size());
  for (std::size_t k = 0; k < full.pairs.size(); ++k) {
    const core::PairEvidence& a = full.pairs[k];
    const core::PairEvidence& b = stored.pairs[k];
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
  EXPECT_EQ(full.colluders(), stored.colluders());
  // The operator-facing text — evidence lines included — must be
  // byte-identical (costs are intentionally excluded from the report
  // text: kStored's cheaper row scans are the one permitted difference).
  EXPECT_EQ(service::format_epoch_report("diff", 1, full),
            service::format_epoch_report("diff", 1, stored));
}

void expect_group_reports_identical(
    const detect::GroupDetectionReport& full,
    const detect::GroupDetectionReport& stored) {
  ASSERT_EQ(full.groups.size(), stored.groups.size());
  for (std::size_t g = 0; g < full.groups.size(); ++g) {
    const detect::CollusionGroup& a = full.groups[g];
    const detect::CollusionGroup& b = stored.groups[g];
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.outside_positive_fraction, b.outside_positive_fraction);
    EXPECT_EQ(a.outside_ratings, b.outside_ratings);
    EXPECT_EQ(a.inside_ratings, b.inside_ratings);
    EXPECT_EQ(a.to_string(), b.to_string());
  }
  EXPECT_EQ(full.colluders(), stored.colluders());
}

class MatrixBackendDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixBackendDifferentialTest, SnapshotBuildMatchesDenseOracle) {
  const std::uint64_t seed = GetParam();
  const Trace trace = make_trace(seed);
  const std::vector<double> reps = reputations_of(trace);
  const core::DetectorConfig cfg = config_for(seed);
  const ReferenceMatrix ref = ReferenceMatrix::of(
      trace.ratings, reps, cfg.high_rep_threshold, cfg.frequency_min);

  // The window rating by rating under each rule: add_rating's incremental
  // frequent aggregates against the model's recomputed ones.
  const RatingMatrix full =
      window_matrix(trace.ratings, reps, cfg.high_rep_threshold,
                    cfg.frequency_min, ScanCost::kFullRow);
  const RatingMatrix stored =
      window_matrix(trace.ratings, reps, cfg.high_rep_threshold,
                    cfg.frequency_min, ScanCost::kStored);
  EXPECT_EQ(full.scan_cost(), ScanCost::kFullRow);
  EXPECT_EQ(stored.scan_cost(), ScanCost::kStored);
  expect_matches(full, ref);
  expect_matches(stored, ref);

  detect::BasicDetector basic(cfg);
  detect::OptimizedDetector optimized(cfg);
  const auto full_snap = detect::EpochSnapshot::of(full);
  const auto stored_snap = detect::EpochSnapshot::of(stored);
  expect_reports_identical(basic.on_epoch(full_snap),
                           basic.on_epoch(stored_snap));
  expect_reports_identical(optimized.on_epoch(full_snap),
                           optimized.on_epoch(stored_snap));
  expect_group_reports_identical(detect::detect_groups(full_snap, cfg),
                                 detect::detect_groups(stored_snap, cfg));

  // Without precomputed frequent aggregates the Optimized joint-complement
  // path falls back to a full row recompute — the other row-scan code
  // path; it must agree under both rules too.
  const RatingMatrix full_recompute = window_matrix(
      trace.ratings, reps, cfg.high_rep_threshold, 0, ScanCost::kFullRow);
  const RatingMatrix stored_recompute = window_matrix(
      trace.ratings, reps, cfg.high_rep_threshold, 0, ScanCost::kStored);
  expect_matches(stored_recompute, ReferenceMatrix::of(
                                       trace.ratings, reps,
                                       cfg.high_rep_threshold, 0));
  expect_reports_identical(
      optimized.on_epoch(detect::EpochSnapshot::of(full_recompute)),
      optimized.on_epoch(detect::EpochSnapshot::of(stored_recompute)));
}

// A standalone manager (kFullRow) and a one-partition shard manager
// (kStored) over the same stream: both matrices read as the model after
// every epoch, and both emit the same reports and suppressions.
TEST_P(MatrixBackendDifferentialTest, IncrementalManagerMatchesDenseOracle) {
  const std::uint64_t seed = GetParam();
  const Trace trace = make_trace(seed);
  const core::DetectorConfig cfg = config_for(seed);

  reputation::SummationEngine full_engine(trace.n, /*normalize=*/false);
  reputation::SummationEngine stored_engine(trace.n, /*normalize=*/false);
  managers::CentralizedManager full_mgr(trace.n, full_engine, cfg);
  managers::CentralizedManager stored_mgr(
      rating::RowIndex::single(trace.n), 0, stored_engine, cfg);
  EXPECT_EQ(full_mgr.matrix().scan_cost(), ScanCost::kFullRow);
  EXPECT_EQ(stored_mgr.matrix().scan_cost(), ScanCost::kStored);
  ReferenceMatrix ref(trace.n, cfg.frequency_min);
  detect::OptimizedDetector detector(cfg);

  const auto run_epoch = [&](managers::CentralizedManager& mgr,
                             std::uint64_t epoch) {
    mgr.update_reputations();
    const core::DetectionReport report = mgr.run_detection(detector);
    return service::format_epoch_report("diff", epoch, report);
  };
  // The managers refresh every reputation from their engine last.
  const auto expect_both_match = [&] {
    for (NodeId i = 0; i < trace.n; ++i) {
      ref.set_global_reputation(i, full_engine.detection_reputation(i),
                                cfg.high_rep_threshold);
    }
    expect_matches(full_mgr.matrix(), ref);
    expect_matches(stored_mgr.matrix(), ref);
  };
  const auto ingest = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      const Rating& r = trace.ratings[k];
      ASSERT_TRUE(full_mgr.ingest(r));
      ASSERT_TRUE(stored_mgr.ingest(r));
      ref.add_rating(r.ratee, r.rater, r.score);
    }
  };

  // Window 1: first half of the stream.
  const std::size_t half = trace.ratings.size() / 2;
  ingest(0, half);
  EXPECT_EQ(run_epoch(full_mgr, 1), run_epoch(stored_mgr, 1));
  expect_both_match();

  // Window 2: suppression from window 1 carries over identically.
  full_mgr.reset_window();
  stored_mgr.reset_window();
  ref.clear_window();
  ingest(half, trace.ratings.size());
  EXPECT_EQ(run_epoch(full_mgr, 2), run_epoch(stored_mgr, 2));
  expect_both_match();

  std::vector<NodeId> full_detected(full_mgr.detected().begin(),
                                    full_mgr.detected().end());
  std::vector<NodeId> stored_detected(stored_mgr.detected().begin(),
                                      stored_mgr.detected().end());
  std::sort(full_detected.begin(), full_detected.end());
  std::sort(stored_detected.begin(), stored_detected.end());
  EXPECT_EQ(full_detected, stored_detected);
  for (NodeId i = 0; i < trace.n; ++i) {
    EXPECT_EQ(full_engine.detection_reputation(i),
              stored_engine.detection_reputation(i))
        << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixBackendDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 100));

// Footprint regression: a 10k-node matrix at 1% density must cost less
// than 5% of what storing all n cells of every row would. That side is
// the analytic figure dense_footprint_bytes — allocating it would take
// ~1.2 GB.
TEST(MatrixBackendMemoryTest, Sparse10kOnePercentUnderFivePercentOfDense) {
  constexpr std::size_t kNodes = 10000;
  constexpr std::size_t kCells = kNodes * kNodes / 100;
  RatingMatrix sparse(kNodes);
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
      << ", all n cells a row: " << dense_bytes;
}

}  // namespace
}  // namespace p2prep
