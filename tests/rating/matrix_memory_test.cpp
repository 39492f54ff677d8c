// Holds RatingMatrix::approx_memory_bytes() to the heap it really uses.
//
// The bench memory columns (bytes per stored rating) and the footprint
// regression tests read the model, so the model itself must track what
// the allocator hands out. Each case builds a matrix from a seeded zipf
// trace and compares the model against the growth of glibc's in-use heap
// (mallinfo2: uordblks for arena chunks plus hblkhd for mmap'd blocks),
// which includes allocator headers and vector growth slack.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rating/matrix.h"
#include "tests/differential/trace_gen.h"
#include "tests/rating/reference_matrix.h"
#include "util/rng.h"

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define P2PREP_HAVE_MALLINFO2 1
#endif

// Sanitizer runtimes replace malloc, so glibc's arena statistics do not
// see the matrix's allocations.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define P2PREP_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define P2PREP_SANITIZED_HEAP 1
#endif
#endif

namespace p2prep::rating {
namespace {

constexpr std::size_t kNodes = 1000;
constexpr std::size_t kRatings = 300'000;
constexpr double kMaxModelError = 0.20;

#if defined(P2PREP_HAVE_MALLINFO2) && !defined(P2PREP_SANITIZED_HEAP)
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}
#endif

const testgen::Trace& trace() {
  static const testgen::Trace t =
      testgen::make_zipf_trace(42, kNodes, kRatings);
  return t;
}

struct Measurement {
  std::size_t model = 0;
  std::size_t heap = 0;
};

constexpr std::size_t kShards = 4;

/// kShards partitioned matrices over one shared row index, owner(i) =
/// i % kShards, as the sharded service holds them.
struct Shards {
  std::shared_ptr<const RowIndex> index;
  std::array<std::unique_ptr<RatingMatrix>, kShards> matrices;

  Shards(std::size_t nodes, std::uint32_t frequency_threshold) {
    std::vector<std::uint32_t> owners(nodes);
    for (NodeId i = 0; i < nodes; ++i) owners[i] = i % kShards;
    index = std::make_shared<const RowIndex>(std::move(owners), kShards);
    for (std::uint32_t p = 0; p < kShards; ++p) {
      matrices[p] =
          std::make_unique<RatingMatrix>(index, p, ScanCost::kStored);
      matrices[p]->set_frequency_threshold(frequency_threshold);
    }
  }
  RatingMatrix& owner(NodeId i) { return *matrices[i % kShards]; }
};

std::size_t model_bytes(const std::unique_ptr<RatingMatrix>& m) {
  return m->approx_memory_bytes();
}
/// The matrices plus the shared slot tables, charged once, as the service
/// counts them.
std::size_t model_bytes(const Shards& shards) {
  std::size_t bytes = shards.index->slot_table_bytes();
  for (const auto& m : shards.matrices) bytes += m->approx_memory_bytes();
  return bytes;
}

/// Heap growth across `make` (which returns the matrices on the heap, so
/// their headers are counted too) against the model of what it built.
template <typename Make>
Measurement measure(Make make) {
#if defined(P2PREP_HAVE_MALLINFO2) && !defined(P2PREP_SANITIZED_HEAP)
  const std::size_t before = heap_in_use();
  const auto built = make();
  const std::size_t after = heap_in_use();
  return {model_bytes(built), after - before};
#else
  (void)make;
  return {};
#endif
}

void expect_model_tracks_heap(const Measurement& got, const char* what) {
  const double error = (static_cast<double>(got.model) -
                        static_cast<double>(got.heap)) /
                       static_cast<double>(got.heap);
  const std::string key(what);
  ::testing::Test::RecordProperty(key + "_model_bytes",
                                  std::to_string(got.model));
  ::testing::Test::RecordProperty(key + "_heap_bytes",
                                  std::to_string(got.heap));
  ::testing::Test::RecordProperty(key + "_model_error_pct",
                                  std::to_string(100.0 * error));
  EXPECT_LE(std::abs(error), kMaxModelError)
      << what << ": model " << got.model << " B vs heap growth " << got.heap
      << " B";
}

class HeapStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !defined(P2PREP_HAVE_MALLINFO2)
    GTEST_SKIP() << "needs glibc >= 2.33 mallinfo2()";
#elif defined(P2PREP_SANITIZED_HEAP)
    GTEST_SKIP() << "sanitizer allocator bypasses glibc heap statistics";
#endif
  }
};

class MatrixMemoryModelTest
    : public HeapStatsTest,
      public ::testing::WithParamInterface<ScanCost> {};

// Rows replayed through reserve_cells and restore_cell, as checkpoint
// restore and the receiver of a handoff fill them, are sized exactly.
TEST_P(MatrixMemoryModelTest, RestoredWithinTwentyPercentOfHeap) {
  // The replayed cells are gathered outside the measurement.
  RatingMatrix source(kNodes, ScanCost::kStored);
  for (const Rating& r : trace().ratings)
    source.add_rating(r.ratee, r.rater, r.score);
  std::vector<std::vector<std::pair<NodeId, PairStats>>> rows(kNodes);
  for (NodeId i = 0; i < kNodes; ++i)
    source.for_each_nonzero_cell(i, [&](NodeId k, const PairStats& stats) {
      rows[i].emplace_back(k, stats);
    });
  const Measurement got = measure([&] {
    auto m = std::make_unique<RatingMatrix>(kNodes, GetParam());
    m->set_frequency_threshold(10);
    for (NodeId i = 0; i < kNodes; ++i) {
      m->reserve_cells(i, rows[i].size());
      for (const auto& [k, stats] : rows[i]) m->restore_cell(i, k, stats);
    }
    return m;
  });
  expect_model_tracks_heap(got, "restore");
}

TEST_P(MatrixMemoryModelTest, IncrementalAddsWithinTwentyPercentOfHeap) {
  const testgen::Trace& t = trace();  // generated outside the measurement
  const Measurement got = measure([&] {
    auto m = std::make_unique<RatingMatrix>(kNodes, GetParam());
    m->set_frequency_threshold(10);
    for (const Rating& r : t.ratings)
      m->add_rating(r.ratee, r.rater, r.score);
    return m;
  });
  expect_model_tracks_heap(got, "add_rating");
}

// The sharded service's shape: kShards sparse matrices over the same n
// nodes, each holding slots only for the rows it owns (ratings route by
// ratee). Many owned rows are never written, so the empty-row slots are
// a large share of the footprint; the model must still track the heap.
using MatrixMemoryModelShardedTest = HeapStatsTest;

constexpr std::size_t kQuarterOwnedRatings = 160'000;

Measurement measure_quarter_owned() {
  constexpr std::size_t kShardNodes = 10'000;
  const testgen::Trace t =
      testgen::make_zipf_trace(43, kShardNodes, kQuarterOwnedRatings);
  return measure([&] {
    Shards shards(kShardNodes, 10);
    for (const Rating& r : t.ratings)
      shards.owner(r.ratee).add_rating(r.ratee, r.rater, r.score);
    return shards;
  });
}

TEST_F(MatrixMemoryModelShardedTest, QuarterOwnedRowsWithinTwentyPercentOfHeap) {
  expect_model_tracks_heap(measure_quarter_owned(), "sharded");
}

// The real heap, not only the model: one block per row (a 48-byte header
// and ~1.25x cell growth) and a slot per owned node take this shape to
// ~12.1 B of heap per stored rating (~13.5 B with a slot per node in every
// shard). The former layout — a 72-byte row plus a separately allocated,
// doubling cell vector — took ~17.5 B and fails this bound.
TEST_F(MatrixMemoryModelShardedTest, QuarterOwnedRowsHeapPerRatingBounded) {
  constexpr double kMaxHeapBytesPerRating = 15.0;
  const Measurement got = measure_quarter_owned();
  const double per_rating = static_cast<double>(got.heap) /
                            static_cast<double>(kQuarterOwnedRatings);
  ::testing::Test::RecordProperty("heap_bytes_per_rating",
                                  std::to_string(per_rating));
  EXPECT_LE(per_rating, kMaxHeapBytesPerRating)
      << "heap growth " << got.heap << " B for " << kQuarterOwnedRatings
      << " ratings";
}

// perfbench detect_sweep's shape: kShards sparse matrices over 10k nodes,
// ~140k organic ratings spread over nearly as many distinct cells (most
// cells hold one rating), 250 mutual pairs of 50 ratings per direction,
// and a host reputation for each rated node on its owner shard. Cells are
// most of this shape's footprint, so it pins the packed 8-byte cell term
// of the model.
TEST_F(MatrixMemoryModelShardedTest, DetectSweepShapeWithinTwentyPercentOfHeap) {
  constexpr std::size_t kShardNodes = 10'000;
  constexpr std::size_t kPairs = 250;
  std::vector<Rating> ratings;
  util::Rng rng(44);
  for (rating::Tick t = 0; t < 140'000; ++t) {
    const auto rater = static_cast<NodeId>(rng.next_below(kShardNodes));
    auto ratee = static_cast<NodeId>(rng.next_below(kShardNodes));
    if (ratee == rater) ratee = static_cast<NodeId>((ratee + 1) % kShardNodes);
    ratings.push_back({rater, ratee,
                       rng.chance(0.85) ? Score::kPositive : Score::kNegative,
                       t});
  }
  for (std::size_t p = 0; p < kPairs; ++p) {
    const auto a = static_cast<NodeId>(2 * p);
    for (int k = 0; k < 50; ++k) {
      ratings.push_back({a, a + 1, Score::kPositive, 0});
      ratings.push_back({a + 1, a, Score::kPositive, 0});
    }
  }
  std::vector<double> reps(kShardNodes, 0.0);
  for (const Rating& r : ratings) reps[r.ratee] += 1.0 / 64;
  const Measurement got = measure([&] {
    Shards shards(kShardNodes, 20);
    for (const Rating& r : ratings)
      shards.owner(r.ratee).add_rating(r.ratee, r.rater, r.score);
    for (NodeId i = 0; i < kShardNodes; ++i)
      shards.owner(i).set_global_reputation(i, reps[i], 0.5);
    return shards;
  });
  expect_model_tracks_heap(got, "detect_sweep");
}

INSTANTIATE_TEST_SUITE_P(Backends, MatrixMemoryModelTest,
                         ::testing::Values(ScanCost::kStored,
                                           ScanCost::kFullRow),
                         [](const auto& info) {
                           return testref::arm_name(info.param);
                         });

}  // namespace
}  // namespace p2prep::rating
