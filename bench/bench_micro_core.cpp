// Micro-benchmarks of core building blocks: rating ingestion, filling a
// window matrix, Formula (2) evaluation and the window reset.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/formula.h"
#include "rating/matrix.h"
#include "util/rng.h"

namespace {

using namespace p2prep;

void BM_MatrixIngest(benchmark::State& state) {
  rating::RatingMatrix matrix(1000);
  util::Rng rng(3);
  for (auto _ : state) {
    const auto rater = static_cast<rating::NodeId>(rng.next_below(1000));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(1000));
    if (ratee == rater) ratee = (ratee + 1) % 1000;
    matrix.add_rating(ratee, rater, rating::Score::kPositive);
  }
  benchmark::DoNotOptimize(matrix.totals(0));
}
BENCHMARK(BM_MatrixIngest);

/// A window of n * 30 ratings over n nodes filled into a fresh matrix —
/// what `p2prep_cli detect` pays before it sweeps.
void BM_MatrixFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  std::vector<rating::Rating> ratings;
  for (std::size_t k = 0; k < n * 30; ++k) {
    const auto rater = static_cast<rating::NodeId>(rng.next_below(n));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
    if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
    ratings.push_back({rater, ratee,
                       rng.chance(0.8) ? rating::Score::kPositive
                                       : rating::Score::kNegative,
                       0});
  }
  for (auto _ : state) {
    rating::RatingMatrix matrix(n);
    for (const rating::Rating& r : ratings)
      matrix.add_rating(r.ratee, r.rater, r.score);
    for (rating::NodeId i = 0; i < n; ++i)
      matrix.set_global_reputation(i, 0.1, 0.05);
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_MatrixFill)->Arg(100)->Arg(200)->Arg(400);

void BM_Formula2(benchmark::State& state) {
  util::Rng rng(11);
  for (auto _ : state) {
    const auto n_i = 1 + rng.next_below(1000);
    const auto n_ij = rng.next_below(n_i + 1);
    benchmark::DoNotOptimize(core::formula2_satisfied(
        rng.uniform(-500.0, 500.0), 0.8, 0.2, n_i, n_ij));
  }
}
BENCHMARK(BM_Formula2);

void BM_WindowReset(benchmark::State& state) {
  rating::RatingMatrix matrix(500);
  util::Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t k = 0; k < 20000; ++k) {
      const auto rater = static_cast<rating::NodeId>(rng.next_below(500));
      auto ratee = static_cast<rating::NodeId>(rng.next_below(500));
      if (ratee == rater) ratee = (ratee + 1) % 500;
      matrix.add_rating(ratee, rater, rating::Score::kPositive);
    }
    state.ResumeTiming();
    matrix.clear_window();
  }
}
BENCHMARK(BM_WindowReset);

}  // namespace

BENCHMARK_MAIN();
