// detect_sweep: an in-process ReputationService in global scope (4
// shards, sparse backend, optimized detector, WAL off) over 10k nodes, an
// epoch every 16k ratings. One closed-loop producer calls ingest() for
// every rating of the stream while a reader thread polls ServiceSnapshot
// every millisecond (time to detection, queries, queue depth); drain()
// ends the timed span.
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "replay.h"
#include "service/service.h"
#include "stream.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace p2prep;

constexpr std::size_t kShards = 4;

struct Shape {
  StreamSpec stream;
  std::size_t epoch_ratings = 0;
};

Shape detect_sweep_shape(bool smoke) {
  Shape sh;
  sh.epoch_ratings = smoke ? 1024 : 16384;
  sh.stream.nodes = smoke ? 600 : 10000;
  sh.stream.pairs = smoke ? 20 : 250;
  sh.stream.ratings = sh.epoch_ratings * (smoke ? 8 : 10);
  sh.stream.boost_window = sh.epoch_ratings / 4;
  return sh;
}

service::ServiceConfig service_config(const Shape& sh) {
  service::ServiceConfig cfg;
  cfg.num_nodes = sh.stream.nodes;
  cfg.num_shards = kShards;
  cfg.epoch_ratings = sh.epoch_ratings;
  cfg.detector = "optimized";
  cfg.record_reports = false;
  return cfg;
}

/// Everything one measured round yields.
struct Round {
  double setup_s = 0.0;
  double ingest_rps = 0.0;
  double drain_ms = 0.0;
  double mem_bytes_per_rating = 0.0;
  std::vector<double> ttd_ms;
  std::vector<std::uint32_t> ingest_ns;  ///< Every ingest() call.
  std::vector<std::uint32_t> query_ns;
  std::uint64_t queue_depth_max = 0;
  double gen_late_ms_max = 0.0;
  service::ServiceMetrics metrics;
  std::vector<rating::NodeId> suspected;
};

/// One round: set up (stream, service), then — unless `measure` is
/// false, which makes it a set-up probe — drive the stream, drain and
/// check.
Round run_round(const Options& o, const Shape& sh, bool measure,
                Report& report) {
  Round out;
  const std::int64_t t_setup = now_ns();
  const Stream s = make_stream(sh.stream, o.seed);
  auto svc = std::make_unique<service::ReputationService>(service_config(sh));
  (void)svc->metrics();  // warm-up: every shard has published a view
  out.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
  if (!measure) return out;

  const std::size_t n = s.ratings.size();
  const std::size_t pairs = s.pairs.size();
  std::vector<std::atomic<std::int64_t>> acked_at(pairs);
  std::vector<std::int64_t> seen_at(pairs, 0);
  std::atomic<bool> done{false};

  // Reader: polls every millisecond on a fixed schedule.
  std::thread reader([&] {
    std::vector<bool> flagged(s.nodes);
    std::int64_t due = now_ns();
    std::int64_t late_max = 0;
    for (;;) {
      due += 1'000'000;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
      const bool last = done.load();
      const std::int64_t t0 = now_ns();
      late_max = std::max(late_max, t0 - due);
      // The in-process counterpart of QueryColluders: a fresh snapshot
      // and the list of every suspected node.
      const trace::Scope span("service.query");
      const service::ServiceSnapshot snap = svc->snapshot();
      for (rating::NodeId i = 0; i < s.nodes; ++i)
        flagged[i] = snap.suspected(i);
      const std::int64_t t1 = now_ns();
      out.query_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
      out.queue_depth_max = std::max(out.queue_depth_max, svc->queue_depth());
      for (std::size_t k = 0; k < pairs; ++k) {
        if (seen_at[k] != 0 || acked_at[k].load() == 0) continue;
        if (flagged[s.pairs[k].first] && flagged[s.pairs[k].second])
          seen_at[k] = t1;
      }
      if (last) break;
    }
    out.gen_late_ms_max = static_cast<double>(late_max) / 1e6;
  });

  out.ingest_ns.resize(n);
  std::uint64_t acked = 0;
  const std::int64_t t_first = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const trace::Scope span("service.ingest", i);
    const std::int64_t t0 = now_ns();
    const bool ok = svc->ingest(s.ratings[i]);
    const std::int64_t t1 = now_ns();
    out.ingest_ns[i] = static_cast<std::uint32_t>(t1 - t0);
    acked += ok ? 1 : 0;
    if (s.pair_at[i] >= 0)
      acked_at[static_cast<std::size_t>(s.pair_at[i])].store(t1);
  }
  const std::int64_t t_drain = now_ns();
  {
    const trace::Scope span("service.drain");
    svc->drain();
  }
  const std::int64_t t_end = now_ns();
  out.drain_ms = static_cast<double>(t_end - t_drain) / 1e6;
  out.ingest_rps =
      static_cast<double>(acked) / (static_cast<double>(t_end - t_first) / 1e9);
  done.store(true);
  reader.join();

  out.metrics = svc->metrics();
  const service::ServiceSnapshot snap = svc->snapshot();
  for (rating::NodeId i = 0; i < s.nodes; ++i)
    if (snap.suspected(i)) out.suspected.push_back(i);
  out.mem_bytes_per_rating = static_cast<double>(out.metrics.matrix_bytes) /
                             static_cast<double>(out.metrics.ratings_applied);

  std::vector<std::int64_t> acked_copy(pairs);
  for (std::size_t k = 0; k < pairs; ++k) acked_copy[k] = acked_at[k].load();
  out.ttd_ms = ttd_samples(report, acked_copy, seen_at);
  report.ops(n + out.query_ns.size(), n - acked);
  report.check(acked == n, "every_rating_acknowledged",
               std::to_string(acked) + " of " + std::to_string(n));
  report.check(out.metrics.ratings_applied == acked,
               "ratings_applied_equals_acked",
               std::to_string(out.metrics.ratings_applied) + " applied, " +
                   std::to_string(acked) + " acked");
  check_same_ids(report, "suspected_equals_planted", out.suspected,
                 s.colluders);
  return out;
}

}  // namespace

void run_detect_sweep(const Options& o, Report& report) {
  const Shape sh = detect_sweep_shape(o.smoke);
  auto round = [&](bool measure) {
    Round r = run_round(o, sh, measure, report);
    if (measure) {
      std::vector<std::uint32_t> q = r.query_ns;
      std::fprintf(stderr,
                   "perfbench: round: setup %.3f s, %.0f ratings/s, ttd p50 "
                   "%.1f ms, %llu epochs (mean %.1f ms), query p50/p90 "
                   "%.3f/%.3f us\n",
                   r.setup_s, r.ingest_rps, median(r.ttd_ms),
                   static_cast<unsigned long long>(r.metrics.epochs_completed),
                   r.metrics.epoch_latency_ms_mean, quantile(q, 0.5) / 1e3,
                   quantile(q, 0.9) / 1e3);
    }
    return r;
  };

  if (!o.trace) {
    std::vector<Round> rounds;
    const std::int64_t t0 = now_ns();
    do {
      rounds.push_back(round(true));
    } while (!o.smoke && static_cast<double>(now_ns() - t0) / 1e9 < o.seconds);
    // The first round warms the allocator and page tables; with more
    // than one round it only counts towards set-up time.
    std::vector<double> setup{rounds.front().setup_s};
    if (rounds.size() > 1) rounds.erase(rounds.begin());
    // Query quantiles are taken per round and reported as the median
    // across rounds; time to detection is pooled.
    std::vector<double> rps, mem, ttd, query50;
    for (const Round& r : rounds) {
      setup.push_back(r.setup_s);
      rps.push_back(r.ingest_rps);
      mem.push_back(r.mem_bytes_per_rating);
      ttd.insert(ttd.end(), r.ttd_ms.begin(), r.ttd_ms.end());
      std::vector<double> q = to_us(r.query_ns);
      query50.push_back(quantile(q, 0.5));
    }
    // Set-up is measured at least five times (probes build and tear
    // down everything a round sets up, then stop).
    while (setup.size() < (o.smoke ? 2u : 5u))
      setup.push_back(round(false).setup_s);
    report.metric("setup_s", median(setup));
    report.metric("ingest_rps", median(rps));
    report.metric("ttd_ms_p50", quantile(ttd, 0.5));
    report.metric("ttd_ms_p90", quantile(ttd, 0.9));
    report.metric("query_us_p50", median(query50));
    report.metric("mem_bytes_per_rating", median(mem));
    report.metric("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Traced run: one untraced round, one traced round, then the replays.
  const Round plain = round(true);
  trace::set_enabled(true);
  const Round traced = round(true);
  const Stream s = make_stream(sh.stream, o.seed);
  ReplaySpec spec;
  spec.shards = kShards;
  spec.epoch_ratings = sh.epoch_ratings;
  spec.scan_threads = traced.metrics.epoch_scan_threads;
  spec.dir = o.work_dir + "/replay";
  spec.cli = o.cli;
  if (o.smoke) spec.cluster_ratings = 2048;
  const std::vector<rating::NodeId> flagged =
      replay_layers(s, spec, true, report);
  check_same_ids(report, "replay_flagged_equals_planted", flagged,
                 s.colluders);
  trace::set_enabled(false);

  std::vector<double> ingest = to_us(traced.ingest_ns);
  std::vector<double> plain_ingest = to_us(plain.ingest_ns);
  report.bypassed("rpc.");
  report.metric("service.ingest_call_us_p50", quantile(ingest, 0.5));
  report.metric("service.ingest_call_us_p99", quantile(ingest, 0.99));
  report.metric("service.queue_depth_max",
                static_cast<double>(traced.queue_depth_max));
  report.metric("service.drain_ms", traced.drain_ms);
  report.metric("service.epochs",
                static_cast<double>(traced.metrics.epochs_completed));
  report.metric("service.epoch_ms_mean", traced.metrics.epoch_latency_ms_mean);
  report.metric("wal.bytes_per_rating", 0.0);  // WAL off
  report.metric("bench.gen_late_ms_max", traced.gen_late_ms_max);
  report.metric("bench.trace_overhead_frac",
                1.0 - traced.ingest_rps / plain.ingest_rps);
  report.metric("bench.trace_overhead_ack_frac",
                quantile(ingest, 0.5) / quantile(plain_ingest, 0.5) - 1.0);
}

void check_same_ids(Report& report, const std::string& name,
                    const std::vector<rating::NodeId>& got,
                    const std::vector<rating::NodeId>& want) {
  if (got == want) return;
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  report.check(false, name,
               std::to_string(got.size()) + " ids, expected " +
                   std::to_string(want.size()) + "; first difference at " +
                   std::to_string(i));
}

std::vector<double> ttd_samples(Report& report,
                                const std::vector<std::int64_t>& acked_at,
                                const std::vector<std::int64_t>& seen_at) {
  std::vector<double> out;
  for (std::size_t k = 0; k < acked_at.size(); ++k) {
    if (acked_at[k] != 0 && seen_at[k] != 0)
      out.push_back(static_cast<double>(
                        std::max<std::int64_t>(0, seen_at[k] - acked_at[k])) /
                    1e6);
  }
  report.check(out.size() == acked_at.size(), "every_planted_pair_detected",
               std::to_string(acked_at.size() - out.size()) + " of " +
                   std::to_string(acked_at.size()) + " pairs never seen");
  return out;
}

}  // namespace perfbench
