// Micro-benchmark of the centralized manager's bookkeeping over one
// detection window: O(1) matrix maintenance per rating, an O(n)
// reputation-column refresh per epoch, and one Optimized detection pass.
#include <benchmark/benchmark.h>

#include "detect/optimized_detector.h"
#include "managers/centralized.h"
#include "reputation/summation.h"
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

std::vector<rating::Rating> workload(std::size_t n, std::size_t events) {
  util::Rng rng(n);
  std::vector<rating::Rating> ratings;
  ratings.reserve(events);
  for (std::size_t k = 0; k < events; ++k) {
    auto rater = static_cast<rating::NodeId>(rng.next_below(n));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
    if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
    ratings.push_back({rater, ratee,
                       rng.chance(0.8) ? rating::Score::kPositive
                                       : rating::Score::kNegative,
                       0});
  }
  return ratings;
}

void BM_ManagerCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ratings = workload(n, n * 20);
  detect::OptimizedDetector detector(config());
  for (auto _ : state) {
    state.PauseTiming();
    reputation::SummationEngine engine;
    managers::CentralizedManager mgr(n, engine, config());
    state.ResumeTiming();
    for (const auto& r : ratings) mgr.ingest(r);
    mgr.update_reputations();
    benchmark::DoNotOptimize(mgr.run_detection(detector));
    mgr.reset_window();
  }
}
BENCHMARK(BM_ManagerCycle)->Arg(100)->Arg(200)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
