// Propositions 4.1 / 4.2: detector complexity scaling. Google-benchmark
// timings plus the detectors' own work-unit counters over growing n with
// all rows high-reputed (the worst case the propositions bound):
// Basic = O(m n^2), Optimized = O(m n). The matrices charge row scans by
// stored cells (ScanCost::kStored), so Basic's complement scans cost row
// nnz, not n; bench_fig13_cost charges the paper's full-row scans.
//
// The BM_ParallelEpochService family adds the service-level dimension:
// full global-epoch wall time (freeze, multithreaded sweep, accomplice
// exchange, suppression) across shards x scan threads on a 10k-node / 1%
// density trace. `--smoke` runs only that family at reduced size — the
// ctest entry BenchDetectorScaling.Smoke keeps the wiring from rotting.
//
// BM_HotRowInsert times the matrix's worst-case row insert: one
// row filled with 1k/10k/100k distinct raters in shuffled order.
#include <benchmark/benchmark.h>

#include <string_view>
#include <utility>
#include <vector>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "detect/registry.h"
#include "detect/ring_detector.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"
#include "service/service.h"
#include "util/rng.h"

namespace {

using namespace p2prep;

bool g_smoke = false;

core::DetectorConfig config() {
  core::DetectorConfig c;
  c.positive_fraction_min = 0.8;
  c.complement_fraction_max = 0.2;
  c.frequency_min = 20;
  c.high_rep_threshold = 0.05;
  return c;
}

rating::RatingMatrix make_world(std::size_t n) {
  util::Rng rng(n);
  rating::RatingMatrix m(n, rating::ScanCost::kStored);
  // 5% of nodes are colluders in consecutive pairs.
  const std::size_t pairs = std::max<std::size_t>(1, n / 40);
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    for (int k = 0; k < 40; ++k) {
      m.add_rating(b, a, rating::Score::kPositive);
      m.add_rating(a, b, rating::Score::kPositive);
    }
  }
  // Organic background load.
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 6; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      m.add_rating(ratee, rater,
                   rng.chance(ratee < 2 * pairs ? 0.1 : 0.85)
                       ? rating::Score::kPositive
                       : rating::Score::kNegative);
    }
  }
  for (rating::NodeId i = 0; i < n; ++i)  // everyone high-reputed: m = n
    m.set_global_reputation(i, 0.2, 0.05);
  return m;
}

// Arg 0: n.

void BM_BasicDetect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = make_world(n);
  detect::BasicDetector detector(config());
  std::uint64_t work = 0;
  for (auto _ : state) {
    const auto report = detector.on_epoch(detect::EpochSnapshot::of(matrix));
    work = report.cost.total();
    benchmark::DoNotOptimize(report);
  }
  state.counters["work_units"] =
      benchmark::Counter(static_cast<double>(work));
  state.counters["work_per_n2"] = benchmark::Counter(
      static_cast<double>(work) / (static_cast<double>(n) * static_cast<double>(n)));
  state.counters["matrix_bytes"] =
      benchmark::Counter(static_cast<double>(matrix.approx_memory_bytes()));
}
BENCHMARK(BM_BasicDetect)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

/// Ring world: directed boost cycles of size 3-5 (one per 40 nodes)
/// buried in the same organic background as make_world.
rating::RatingMatrix make_ring_world(std::size_t n) {
  util::Rng rng(n * 7 + 1);
  rating::RatingMatrix m(n, rating::ScanCost::kStored);
  const std::size_t rings = std::max<std::size_t>(1, n / 40);
  rating::NodeId next = 0;
  std::size_t members_total = 0;
  for (std::size_t r = 0; r < rings; ++r) {
    const std::size_t size = 3 + r % 3;
    for (std::size_t i = 0; i < size; ++i) {
      const auto u = static_cast<rating::NodeId>(next + i);
      const auto v = static_cast<rating::NodeId>(next + (i + 1) % size);
      for (int k = 0; k < 30; ++k) m.add_rating(v, u, rating::Score::kPositive);
    }
    next = static_cast<rating::NodeId>(next + size);
    members_total += size;
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 6; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      m.add_rating(ratee, rater,
                   rng.chance(ratee < members_total ? 0.1 : 0.85)
                       ? rating::Score::kPositive
                       : rating::Score::kNegative);
    }
  }
  for (rating::NodeId i = 0; i < n; ++i) m.set_global_reputation(i, 0.2, 0.05);
  return m;
}

void BM_OptimizedDetect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = make_world(n);
  detect::OptimizedDetector detector(config());
  std::uint64_t work = 0;
  for (auto _ : state) {
    const auto report = detector.on_epoch(detect::EpochSnapshot::of(matrix));
    work = report.cost.total();
    benchmark::DoNotOptimize(report);
  }
  state.counters["work_units"] =
      benchmark::Counter(static_cast<double>(work));
  state.counters["work_per_n"] = benchmark::Counter(
      static_cast<double>(work) / static_cast<double>(n));
  state.counters["matrix_bytes"] =
      benchmark::Counter(static_cast<double>(matrix.approx_memory_bytes()));
}
BENCHMARK(BM_OptimizedDetect)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// The third detector dimension: make_detector-constructed streaming ring
// detection, full rebuild every epoch (no dirty delta in the snapshot).
// Work scales with nnz + boost-graph size, not n^2.
void BM_RingDetect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = make_ring_world(n);
  const auto detector = detect::make_detector("ring", config());
  std::uint64_t work = 0;
  std::size_t rings = 0;
  for (auto _ : state) {
    const core::DetectionReport report =
        detector->on_epoch(detect::EpochSnapshot::of(matrix));
    work = report.cost.total();
    rings = report.rings.size();
    benchmark::DoNotOptimize(report);
  }
  state.counters["work_units"] =
      benchmark::Counter(static_cast<double>(work));
  state.counters["rings"] = benchmark::Counter(static_cast<double>(rings));
  state.counters["matrix_bytes"] =
      benchmark::Counter(static_cast<double>(matrix.approx_memory_bytes()));
}
BENCHMARK(BM_RingDetect)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// Streaming pay-off: 10k nodes at 1% density, ~0.5% of cells dirtied per
// epoch. Arg 0 selects the epoch mode — 0 rebuilds the boost-edge cache
// from all ~1M nonzero cells, 1 applies only the dirty delta. The
// incremental line must come in >= 5x faster (it lands orders of
// magnitude faster: work_units counts ~5k touched cells vs ~1M scanned).
void BM_RingEpoch10k(benchmark::State& state) {
  const bool incremental = state.range(0) == 1;
  constexpr std::size_t kNodes = 10000;
  constexpr std::size_t kCells = kNodes * kNodes / 100;  // 1% density
  constexpr std::size_t kDirtyPerEpoch = kCells / 200;   // 0.5% per epoch

  rating::RatingMatrix matrix(kNodes, rating::ScanCost::kStored);
  util::Rng rng(11);
  // Planted rings of size 3-5 so every epoch finds real cycles.
  rating::NodeId next = 0;
  for (std::size_t r = 0; r < 50; ++r) {
    const std::size_t size = 3 + r % 3;
    for (std::size_t i = 0; i < size; ++i) {
      const auto u = static_cast<rating::NodeId>(next + i);
      const auto v = static_cast<rating::NodeId>(next + (i + 1) % size);
      for (int k = 0; k < 25; ++k)
        matrix.add_rating(v, u, rating::Score::kPositive);
    }
    next = static_cast<rating::NodeId>(next + size);
  }
  const rating::NodeId members = next;  // C2: members get panned outside
  for (std::size_t c = 0; c < kCells; ++c) {
    const auto ratee = static_cast<rating::NodeId>(rng.next_below(kNodes));
    auto rater = static_cast<rating::NodeId>(rng.next_below(kNodes));
    if (rater == ratee) rater = static_cast<rating::NodeId>((rater + 1) % kNodes);
    matrix.add_rating(ratee, rater,
                      rng.chance(ratee < members ? 0.1 : 0.8)
                          ? rating::Score::kPositive
                          : rating::Score::kNegative);
  }

  detect::RingDetector detector(config());
  if (incremental) {
    matrix.set_dirty_tracking(true);
    // Prime the cache: the first delta after enabling is incomplete, so
    // this pass is a full rebuild.
    detect::EpochSnapshot prime = detect::EpochSnapshot::of(matrix);
    prime.dirty.push_back(matrix.take_dirty_cells());
    (void)detector.on_epoch(prime);
  }

  std::uint64_t work = 0;
  std::size_t rings = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t d = 0; d < kDirtyPerEpoch; ++d) {
      const auto ratee = static_cast<rating::NodeId>(rng.next_below(kNodes));
      auto rater = static_cast<rating::NodeId>(rng.next_below(kNodes));
      if (rater == ratee)
        rater = static_cast<rating::NodeId>((rater + 1) % kNodes);
      matrix.add_rating(ratee, rater,
                        rng.chance(0.8) ? rating::Score::kPositive
                                        : rating::Score::kNegative);
    }
    detect::EpochSnapshot snap = detect::EpochSnapshot::of(matrix);
    if (incremental) snap.dirty.push_back(matrix.take_dirty_cells());
    state.ResumeTiming();

    const core::DetectionReport report = detector.on_epoch(snap);

    work = report.cost.total();
    rings = report.rings.size();
    benchmark::DoNotOptimize(report);
  }
  state.counters["work_units"] =
      benchmark::Counter(static_cast<double>(work));
  state.counters["rings"] = benchmark::Counter(static_cast<double>(rings));
  state.counters["incremental"] = benchmark::Counter(
      detector.last_pass_incremental() ? 1.0 : 0.0);
}
BENCHMARK(BM_RingEpoch10k)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// Parallel-epoch scaling: wall time of one full global epoch through the
// sharded service. Arg 0: shard count. Arg 1: epoch scan threads, with 0
// selecting the serial coordinator (epoch_scan_threads = 1) as the
// baseline. The trace is 10k nodes at ~1% cell density with planted
// colluding pairs (1 per 40 nodes); workers stay parked for the whole
// epoch, so the measurement is the pure frozen-state scan, not ingest
// admission. Compare the (shards=4, threads=0) and
// (shards=4, threads=hw) rows for the pool's speed-up.
void BM_ParallelEpochService(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t n = g_smoke ? 1000 : 10000;
  const std::size_t cells = n * n / 100;  // ~1% density

  service::ServiceConfig cfg;
  cfg.num_nodes = n;
  cfg.num_shards = shards;
  cfg.queue_capacity = 8192;
  cfg.epoch_ratings = 1u << 30;  // epochs only via force_epoch()
  cfg.detector = "optimized";
  cfg.detector_config = config();
  cfg.record_reports = false;
  cfg.epoch_scan_threads = threads == 0 ? 1 : threads;
  service::ReputationService svc(cfg);

  util::Rng rng(n);
  const std::size_t pairs = std::max<std::size_t>(1, n / 40);
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    for (int k = 0; k < 40; ++k) {
      svc.ingest({a, b, rating::Score::kPositive, 0});
      svc.ingest({b, a, rating::Score::kPositive, 0});
    }
  }
  for (std::size_t c = 0; c < cells; ++c) {
    const auto rater = static_cast<rating::NodeId>(rng.next_below(n));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
    if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
    svc.ingest({rater, ratee,
                rng.chance(ratee < 2 * pairs ? 0.1 : 0.85)
                    ? rating::Score::kPositive
                    : rating::Score::kNegative,
                0});
  }
  svc.drain();

  for (auto _ : state) {
    svc.force_epoch();
    svc.drain();
  }

  const service::ServiceMetrics m = svc.metrics();
  state.counters["epochs"] =
      benchmark::Counter(static_cast<double>(m.epochs_completed));
  state.counters["scan_threads"] =
      benchmark::Counter(static_cast<double>(m.epoch_scan_threads));
  svc.stop();
}
BENCHMARK(BM_ParallelEpochService)
    ->ArgsProduct({{1, 2, 4}, {0, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Sparse-row insert cost on one hot row: Arg 0 distinct raters arrive in
// shuffled order, the worst case for the sorted-run layout (every new cell
// lands mid-row). items_per_second (new cells/s) falls only with
// sqrt(row size) because the tail is capped at ~sqrt(row size) cells; a
// plain sorted insert would fall linearly with the row.
void BM_HotRowInsert(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  std::vector<rating::NodeId> raters(cells);
  for (std::size_t k = 0; k < cells; ++k)
    raters[k] = static_cast<rating::NodeId>(k + 1);
  util::Rng rng(cells);
  for (std::size_t k = cells - 1; k > 0; --k)
    std::swap(raters[k], raters[rng.next_below(k + 1)]);

  rating::RatingMatrix m(cells + 1, rating::ScanCost::kStored);
  for (auto _ : state) {
    for (rating::NodeId rater : raters)
      m.add_rating(0, rater, rating::Score::kPositive);
    benchmark::DoNotOptimize(m.totals(0));
    state.PauseTiming();
    m.clear_window();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_HotRowInsert)->Arg(1'000)->Arg(10'000)->Arg(100'000);

}  // namespace

// BENCHMARK_MAIN with a --smoke preamble: strip the flag, restrict the
// run to the service-level family at reduced size, and let every other
// argument pass through to google-benchmark untouched.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke")
      g_smoke = true;
    else
      args.push_back(argv[i]);
  }
  static char smoke_filter[] = "--benchmark_filter=BM_ParallelEpochService";
  if (g_smoke) args.push_back(smoke_filter);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
