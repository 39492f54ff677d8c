// Sharded-service throughput scaling: streams a fixed synthetic workload
// through ReputationService at 1/2/4/8 shards and reports ingested
// ratings/sec plus epoch-latency percentiles.
//
// Every epoch is global: it sweeps every shard's rows at the epoch
// barrier, cross-shard pairs included. The cadence column picks how often:
// every 1024 ratings, or every 1024 x S ratings, which sweeps each row as
// often as a shard-local epoch every 1024 ratings per shard would
// (DESIGN.md §7 records that comparison).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "service/service.h"
#include "util/rng.h"

namespace {

using namespace p2prep;

constexpr std::size_t kNodes = 2000;
constexpr std::size_t kEvents = 32 * 1024;

std::vector<rating::Rating> workload() {
  util::Rng rng(42);
  std::vector<rating::Rating> ratings;
  ratings.reserve(kEvents);
  for (std::size_t k = 0; k < kEvents; ++k) {
    auto rater = static_cast<rating::NodeId>(rng.next_below(kNodes));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(kNodes));
    if (ratee == rater)
      ratee = static_cast<rating::NodeId>((ratee + 1) % kNodes);
    ratings.push_back({rater, ratee,
                       rng.chance(0.8) ? rating::Score::kPositive
                                       : rating::Score::kNegative,
                       static_cast<rating::Tick>(k)});
  }
  return ratings;
}

// Arg 0: shard count. Arg 1: epoch cadence (1 = every 1024 ratings,
// 2 = every 1024 x S ratings). Shard matrices are sparse; the
// matrix_bytes counter reports their aggregate O(nnz) footprint.
void BM_ServiceIngestThroughput(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::vector<rating::Rating> ratings = workload();

  service::ServiceConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_shards = shards;
  cfg.queue_capacity = 4096;
  cfg.epoch_ratings = state.range(1) == 2 ? 1024 * shards : 1024;
  cfg.detector = "optimized";
  cfg.detector_config.positive_fraction_min = 0.8;
  cfg.detector_config.complement_fraction_max = 0.2;
  cfg.detector_config.frequency_min = 20;
  cfg.detector_config.high_rep_threshold = 0.05;
  cfg.record_reports = false;

  double latency_p99_ms = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t matrix_bytes = 0;
  for (auto _ : state) {
    service::ReputationService svc(cfg);
    for (const auto& r : ratings) svc.ingest(r);
    svc.drain();
    const service::ServiceMetrics m = svc.metrics();
    latency_p99_ms = m.epoch_latency_ms_p99;
    epochs = m.epochs_completed;
    matrix_bytes = m.matrix_bytes;
    svc.stop();
  }
  const std::uint64_t total_ratings =
      static_cast<std::uint64_t>(state.iterations()) * ratings.size();
  state.SetItemsProcessed(static_cast<std::int64_t>(total_ratings));
  state.counters["epochs"] = static_cast<double>(epochs);
  state.counters["epoch_p99_ms"] = latency_p99_ms;
  state.counters["matrix_bytes"] =
      benchmark::Counter(static_cast<double>(matrix_bytes));
  state.counters["ratings_per_sec"] = benchmark::Counter(
      static_cast<double>(total_ratings), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServiceIngestThroughput)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 2}})
    ->ArgNames({"shards", "cadence"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
