// Ablation: parallelizing the Basic / Optimized pair sweeps by lending
// them a thread pool through EpochSnapshot::executor (the seam the
// service's global epoch uses), against the serial sweep over the same
// one-matrix snapshot.
#include <benchmark/benchmark.h>

#include "detect/executor.h"
#include "detect/pair_sweep.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "util/rng.h"

namespace {

using namespace p2prep;

core::DetectorConfig config() {
  core::DetectorConfig c;
  c.positive_fraction_min = 0.8;
  c.complement_fraction_max = 0.2;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  return c;
}

rating::RatingMatrix make_world(std::size_t n) {
  util::Rng rng(n + 1);
  rating::RatingMatrix m(n);
  for (std::size_t p = 0; p < n / 20; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    for (int k = 0; k < 40; ++k) {
      m.add_rating(b, a, rating::Score::kPositive);
      m.add_rating(a, b, rating::Score::kPositive);
    }
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 6; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      m.add_rating(ratee, rater,
                   rng.chance(0.6) ? rating::Score::kPositive
                                   : rating::Score::kNegative);
    }
  }
  for (rating::NodeId i = 0; i < n; ++i) m.set_global_reputation(i, 0.2, 0.05);
  return m;
}

/// Runs `sweep` over a one-matrix snapshot of an n-node world, through
/// `executor` (serial when null).
template <typename Sweep>
void run_sweep(benchmark::State& state, Sweep sweep,
               detect::Executor* executor) {
  const auto matrix = make_world(static_cast<std::size_t>(state.range(0)));
  auto snapshot = detect::EpochSnapshot::of(matrix);
  snapshot.executor = executor;
  for (auto _ : state) benchmark::DoNotOptimize(sweep(snapshot, config()));
}

void BM_BasicSerial(benchmark::State& state) {
  run_sweep(state, detect::sweep_basic, nullptr);
}
BENCHMARK(BM_BasicSerial)->Arg(200)->Arg(600);

void BM_BasicParallel(benchmark::State& state) {
  detect::ThreadPoolExecutor executor;
  run_sweep(state, detect::sweep_basic, &executor);
}
BENCHMARK(BM_BasicParallel)->Arg(200)->Arg(600);

void BM_OptimizedSerial(benchmark::State& state) {
  run_sweep(state, detect::sweep_optimized, nullptr);
}
BENCHMARK(BM_OptimizedSerial)->Arg(600)->Arg(2000);

void BM_OptimizedParallel(benchmark::State& state) {
  detect::ThreadPoolExecutor executor;
  run_sweep(state, detect::sweep_optimized, &executor);
}
BENCHMARK(BM_OptimizedParallel)->Arg(600)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
