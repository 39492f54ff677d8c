// Elastic-resharding bench: grows the service 4 -> 8 shards while a
// producer thread sustains full-speed ingest, and reports what the resize
// cost the live traffic:
//
//   steady_krps      ingest rate before the resize (thousands/sec)
//   handoff_ms       the resize call's blocking window (fence + key move
//                    + durable commit)
//   dip_krps         slowest 100 ms bucket that overlaps the handoff
//   recovery_ms      time from the resize start until a bucket is back at
//                    >= 90% of the steady rate
//   keys_moved       nodes whose owner shard changed (~ nodes / S_old -
//                    nodes / S_new of the id space)
//
// The handoff only parks workers for the moving key range's transfer, so
// the dip should be a brief dent, not a stall: non-moving traffic keeps
// enqueueing into the swapped routing table throughout.
//
//   bench_reshard [--smoke]
//
// --smoke shrinks the workload so CI can assert the path end-to-end (the
// resize commits, traffic survives, stats print) in well under a second.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "service/service.h"
#include "util/rng.h"

namespace {

using namespace p2prep;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBucketMs = 100;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const std::size_t num_nodes = smoke ? 512 : 4096;
  const double steady_phase_ms = smoke ? 150.0 : 2000.0;
  const double settle_phase_ms = smoke ? 150.0 : 2000.0;

  service::ServiceConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_shards = 4;
  cfg.queue_capacity = 8192;
  cfg.epoch_ratings = smoke ? 2048 : 16384;
  cfg.detector = "optimized";
  cfg.detector_config.positive_fraction_min = 0.8;
  cfg.detector_config.complement_fraction_max = 0.2;
  cfg.detector_config.frequency_min = 20;
  cfg.detector_config.high_rep_threshold = 0.05;
  cfg.record_reports = false;

  service::ReputationService svc(cfg);

  // Producer: full-speed ingest of a synthetic uniform workload. The
  // ingested counter is sampled into kBucketMs buckets by the main thread.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ingested{0};
  std::thread producer([&] {
    util::Rng rng(42);
    std::uint64_t tick = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto rater = static_cast<rating::NodeId>(rng.next_below(num_nodes));
      auto ratee = static_cast<rating::NodeId>(rng.next_below(num_nodes));
      if (ratee == rater)
        ratee = static_cast<rating::NodeId>((ratee + 1) % num_nodes);
      svc.ingest({rater, ratee,
                  rng.chance(0.8) ? rating::Score::kPositive
                                  : rating::Score::kNegative,
                  static_cast<rating::Tick>(tick++)});
      ingested.fetch_add(1, std::memory_order_relaxed);
    }
  });

  struct Bucket {
    double t_ms;  ///< Bucket end, relative to bench start.
    std::uint64_t count;
  };
  std::vector<Bucket> buckets;
  const auto t0 = Clock::now();
  std::uint64_t last_count = 0;
  auto sample_until = [&](double deadline_ms) {
    while (ms_since(t0) < deadline_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kBucketMs));
      const std::uint64_t now_count =
          ingested.load(std::memory_order_relaxed);
      buckets.push_back({ms_since(t0), now_count - last_count});
      last_count = now_count;
    }
  };

  // Phase 1: steady state at 4 shards.
  sample_until(steady_phase_ms);
  double steady_rps = 0.0;
  for (const auto& b : buckets) steady_rps += static_cast<double>(b.count);
  steady_rps *= 1000.0 / steady_phase_ms;

  // Phase 2: resize on this thread while the producer keeps pushing. A
  // sampler thread keeps the bucket series alive through the handoff.
  std::atomic<bool> resize_done{false};
  std::thread sampler([&] {
    while (!resize_done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kBucketMs));
      const std::uint64_t now_count =
          ingested.load(std::memory_order_relaxed);
      buckets.push_back({ms_since(t0), now_count - last_count});
      last_count = now_count;
    }
  });
  const double resize_start_ms = ms_since(t0);
  const service::ResizeStats rs = svc.resize(8);
  const double resize_end_ms = ms_since(t0);
  resize_done.store(true, std::memory_order_relaxed);
  sampler.join();

  // Phase 3: settle at 8 shards.
  sample_until(resize_end_ms + settle_phase_ms);

  stop.store(true, std::memory_order_relaxed);
  producer.join();
  svc.drain();

  // Dip: slowest bucket overlapping [resize_start, resize_end]. Recovery:
  // first bucket after resize_start back at >= 90% of steady.
  const double steady_per_bucket =
      steady_rps * static_cast<double>(kBucketMs) / 1000.0;
  double dip_rps = steady_rps;
  double recovery_ms = resize_end_ms - resize_start_ms;
  for (const auto& b : buckets) {
    if (b.t_ms <= resize_start_ms) continue;
    const double rps =
        static_cast<double>(b.count) * 1000.0 / static_cast<double>(kBucketMs);
    if (b.t_ms - static_cast<double>(kBucketMs) <= resize_end_ms)
      dip_rps = std::min(dip_rps, rps);
    if (static_cast<double>(b.count) >= 0.9 * steady_per_bucket) {
      recovery_ms = b.t_ms - resize_start_ms;
      break;
    }
  }

  const service::ServiceMetrics m = svc.metrics();
  std::printf("reshard 4 -> 8 under load (%zu nodes%s)\n", num_nodes,
              smoke ? ", smoke" : "");
  std::printf(
      "steady_krps=%.1f dip_krps=%.1f handoff_ms=%.2f recovery_ms=%.1f "
      "keys_moved=%llu\n",
      steady_rps / 1000.0, dip_rps / 1000.0, rs.duration_ms, recovery_ms,
      static_cast<unsigned long long>(rs.keys_moved));
  std::printf(
      "applied=%llu epochs=%llu shards=%llu map_epoch=%llu resizes=%llu\n",
      static_cast<unsigned long long>(m.ratings_applied),
      static_cast<unsigned long long>(m.epochs_completed),
      static_cast<unsigned long long>(m.current_shard_count),
      static_cast<unsigned long long>(m.shard_map_epoch),
      static_cast<unsigned long long>(m.resizes_completed));
  svc.stop();

  // Smoke assertions: the resize committed and traffic survived it.
  if (m.current_shard_count != 8 || m.resizes_completed != 1 ||
      rs.keys_moved == 0 || m.ratings_applied == 0) {
    std::fprintf(stderr, "FAIL: resize did not commit cleanly\n");
    return 1;
  }
  return 0;
}
