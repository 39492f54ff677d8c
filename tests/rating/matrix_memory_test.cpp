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
#include <vector>

#include "rating/matrix.h"
#include "rating/store.h"
#include "tests/differential/trace_gen.h"
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
using Shards = std::array<std::unique_ptr<RatingMatrix>, kShards>;

std::size_t model_bytes(const std::unique_ptr<RatingMatrix>& m) {
  return m->approx_memory_bytes();
}
std::size_t model_bytes(const Shards& shards) {
  std::size_t bytes = 0;
  for (const auto& m : shards) bytes += m->approx_memory_bytes();
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
      public ::testing::WithParamInterface<MatrixBackend> {};

TEST_P(MatrixMemoryModelTest, BuiltFromStoreWithinTwentyPercentOfHeap) {
  RatingStore store(kNodes);
  for (const Rating& r : trace().ratings) store.ingest(r);
  const std::vector<double> reps = testgen::reputations_of(store);
  const Measurement got = measure([&] {
    return std::make_unique<RatingMatrix>(
        RatingMatrix::build(store, reps, 0.05, 10, GetParam()));
  });
  expect_model_tracks_heap(got, "build");
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
// nodes, each rated only on the rows it owns (ratings route by ratee).
// Most rows of each matrix are never written, so the empty-row slots
// dominate its footprint; the model must still track the heap.
using MatrixMemoryModelShardedTest = HeapStatsTest;

TEST_F(MatrixMemoryModelShardedTest, QuarterOwnedRowsWithinTwentyPercentOfHeap) {
  constexpr std::size_t kShardNodes = 10'000;
  const testgen::Trace t = testgen::make_zipf_trace(43, kShardNodes, 160'000);
  const Measurement got = measure([&] {
    Shards shards;
    for (auto& m : shards) {
      m = std::make_unique<RatingMatrix>(kShardNodes, MatrixBackend::kSparse);
      m->set_frequency_threshold(10);
    }
    for (const Rating& r : t.ratings)
      shards[r.ratee % kShards]->add_rating(r.ratee, r.rater, r.score);
    return shards;
  });
  expect_model_tracks_heap(got, "sharded");
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
    Shards shards;
    for (auto& m : shards) {
      m = std::make_unique<RatingMatrix>(kShardNodes, MatrixBackend::kSparse);
      m->set_frequency_threshold(20);
    }
    for (const Rating& r : ratings)
      shards[r.ratee % kShards]->add_rating(r.ratee, r.rater, r.score);
    for (NodeId i = 0; i < kShardNodes; ++i)
      shards[i % kShards]->set_global_reputation(i, reps[i], 0.5);
    return shards;
  });
  expect_model_tracks_heap(got, "detect_sweep");
}

INSTANTIATE_TEST_SUITE_P(Backends, MatrixMemoryModelTest,
                         ::testing::Values(MatrixBackend::kSparse,
                                           MatrixBackend::kDense),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace p2prep::rating
