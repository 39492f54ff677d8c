// front_door: rpc::RpcServer on loopback over a 4-shard service with the
// WAL and checkpoints on. Three writer connections send single
// SubmitRating requests open-loop at one fixed aggregate rate (latency
// counted from each request's scheduled send time), then switch to a
// closed loop for the throughput figure. A reader connection sends
// QueryReputation at a tenth of the writers' rate and polls
// QueryColluders for time to detection.
#include <sys/prctl.h>

#include <atomic>
#include <barrier>
#include <filesystem>
#include <memory>
#include <thread>

#include "replay.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "service/service.h"
#include "stream.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace p2prep;

constexpr std::size_t kWriters = 3;
constexpr std::int64_t kPollNs = 10'000'000;  // QueryColluders cadence

struct Shape {
  StreamSpec stream;
  double rate = 0.0;      ///< Aggregate open-loop submits per second.
  double open_s = 0.0;
  std::size_t open_n = 0;    ///< Ratings sent open-loop.
  std::size_t closed_n = 0;  ///< Ratings sent closed-loop after them.
  std::size_t epoch_ratings = 0;
};

Shape front_door_shape(const Options& o) {
  Shape sh;
  sh.rate = o.smoke ? 4000.0 : 20000.0;
  sh.open_s = o.smoke ? 0.6 : 0.5 * o.seconds;
  sh.open_n = static_cast<std::size_t>(sh.rate * sh.open_s);
  // About a quarter of the run at the closed loop's ~60k submits/s.
  sh.closed_n = o.smoke ? 6000 : static_cast<std::size_t>(15000 * o.seconds);
  // Two epochs fall inside the open-loop phase; every pair crosses T_N
  // before the second, so the reader sees all of them flagged.
  sh.epoch_ratings = sh.open_n / 2;
  sh.stream.nodes = o.smoke ? 300 : 2000;
  sh.stream.pairs = o.smoke ? 20 : 200;
  sh.stream.ratings = sh.open_n + sh.closed_n;
  const auto total = static_cast<double>(sh.stream.ratings);
  sh.stream.crossing_lo = 0.02 * static_cast<double>(sh.open_n) / total;
  sh.stream.crossing_hi = 0.97 * static_cast<double>(sh.open_n) / total;
  sh.stream.boost_window = sh.epoch_ratings / 4;
  return sh;
}

service::ServiceConfig service_config(const Shape& sh,
                                      const std::string& wal_dir) {
  service::ServiceConfig cfg;
  cfg.num_nodes = sh.stream.nodes;
  cfg.num_shards = 4;
  cfg.epoch_ratings = sh.epoch_ratings;
  cfg.detector = "optimized";
  cfg.record_reports = false;
  cfg.wal_dir = wal_dir;
  cfg.checkpoint_every_epochs = 1;
  return cfg;
}

struct Round {
  double setup_s = 0.0;
  double ingest_rps = 0.0;  ///< Closed-loop phase.
  double drain_ms = 0.0;
  double recover_ms = 0.0;
  double mem_bytes_per_rating = 0.0;
  double wal_bytes_per_rating = 0.0;
  double gen_late_ms_max = 0.0;
  std::vector<double> ttd_ms;
  /// Open-loop phase, indexed by stream position / query number.
  std::vector<std::uint32_t> ack_ns, submit_rtt_ns;
  std::vector<std::uint32_t> query_ns, query_rtt_ns;
  std::uint64_t queue_depth_max = 0;
  std::uint64_t submits_acked = 0;
  service::ServiceMetrics metrics;  ///< Includes the server's rpc_* fields.
  std::size_t scan_threads = 1;
};

struct WriterOut {
  std::int64_t late_max = 0;
  std::int64_t last_end = 0;
  std::uint64_t attempted = 0, failed = 0, closed_acked = 0;
};

Round run_round(const Options& o, const Shape& sh, bool measure,
                const std::string& dir, Report& report) {
  Round out;
  const std::int64_t t_setup = now_ns();
  const Stream s = make_stream(sh.stream, o.seed);
  const service::ServiceConfig cfg = service_config(sh, dir);
  auto svc = std::make_unique<service::ReputationService>(cfg);
  rpc::RpcServerConfig server_cfg;
  auto server = std::make_unique<rpc::RpcServer>(*svc, server_cfg);
  rpc::RpcClientConfig client_cfg;
  client_cfg.port = server->port();
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (std::size_t i = 0; i <= kWriters; ++i) {
    clients.push_back(std::make_unique<rpc::RpcClient>(client_cfg));
    std::string error;
    if (!clients.back()->connect(&error))
      throw std::runtime_error("connect to the RPC server: " + error);
    for (int k = 0; k < 20; ++k) (void)clients.back()->ping();  // warm-up
  }
  out.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
  if (!measure) {
    server->shutdown();
    return out;
  }

  const std::size_t pairs = s.pairs.size();
  const std::size_t total = s.ratings.size();
  std::vector<std::atomic<std::int64_t>> acked_at(pairs);
  std::vector<std::int64_t> seen_at(pairs, 0);
  std::vector<rating::NodeId> last_colluders;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> next_closed{sh.open_n};
  const double interval_ns = 1e9 / sh.rate;
  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t open_end =
      start + static_cast<std::int64_t>(interval_ns *
                                        static_cast<double>(sh.open_n));
  std::int64_t closed_start = 0;
  std::barrier open_done(static_cast<std::ptrdiff_t>(kWriters),
                         [&]() noexcept { closed_start = now_ns(); });
  // Writers fill disjoint stream positions of these.
  out.ack_ns.resize(sh.open_n);
  out.submit_rtt_ns.resize(sh.open_n);

  std::vector<WriterOut> writers(kWriters);
  auto submit = [&](rpc::RpcClient& c, std::size_t i, WriterOut& w) {
    const trace::Scope span("rpc.submit", i);
    const rpc::CallResult res = c.submit_rating_with_retry(s.ratings[i]);
    const std::int64_t end = now_ns();
    const bool ok = res.ok && res.status == rpc::Status::kOk;
    ++w.attempted;
    w.failed += ok ? 0 : 1;
    if (ok && s.pair_at[i] >= 0)
      acked_at[static_cast<std::size_t>(s.pair_at[i])].store(end);
    return std::pair<bool, std::int64_t>(ok, end);
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      prctl(PR_SET_TIMERSLACK, 1);  // wake-ups on time, not 50 us late
      WriterOut& me = writers[w];
      rpc::RpcClient& c = *clients[w];
      for (std::size_t i = w; i < sh.open_n; i += kWriters) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(interval_ns *
                                              static_cast<double>(i));
        wait_until_ns(due);
        const std::int64_t t0 = now_ns();
        me.late_max = std::max(me.late_max, t0 - due);
        const std::int64_t end = submit(c, i, me).second;
        out.ack_ns[i] = static_cast<std::uint32_t>(end - due);
        out.submit_rtt_ns[i] = static_cast<std::uint32_t>(end - t0);
      }
      open_done.arrive_and_wait();
      me.last_end = now_ns();
      for (;;) {
        const std::size_t i = next_closed.fetch_add(1);
        if (i >= total) break;
        const auto [ok, end] = submit(c, i, me);
        me.closed_acked += ok ? 1 : 0;
        me.last_end = end;
      }
    });
  }

  std::uint64_t reader_attempted = 0, reader_failed = 0;
  std::int64_t reader_late = 0;
  std::thread reader([&] {
    prctl(PR_SET_TIMERSLACK, 1);
    rpc::RpcClient& c = *clients[kWriters];
    util::Rng rng(o.seed ^ 0x7265616465720000ull);
    const auto query_interval = static_cast<std::int64_t>(interval_ns * 10.0);
    std::int64_t next_query = start;
    std::int64_t next_poll = start + kPollNs;
    std::vector<bool> flagged(s.nodes);
    for (;;) {
      const bool query = next_query < open_end && next_query <= next_poll;
      const std::int64_t due = query ? next_query : next_poll;
      wait_until_ns(due);
      const bool last = stop.load();
      const std::int64_t t0 = now_ns();
      reader_late = std::max(reader_late, t0 - due);
      ++reader_attempted;
      out.queue_depth_max = std::max(out.queue_depth_max, svc->queue_depth());
      if (query) {
        const trace::Scope span("rpc.query");
        rpc::QueryReputationResponse resp;
        const auto node = static_cast<rating::NodeId>(rng.next_below(s.nodes));
        const rpc::CallResult res = c.query_reputation(node, &resp);
        const std::int64_t end = now_ns();
        reader_failed += res.ok && res.status == rpc::Status::kOk ? 0 : 1;
        out.query_ns.push_back(static_cast<std::uint32_t>(end - due));
        out.query_rtt_ns.push_back(static_cast<std::uint32_t>(end - t0));
        next_query += query_interval;
        continue;
      }
      const trace::Scope span("rpc.query_colluders");
      rpc::QueryColludersResponse resp;
      const rpc::CallResult res = c.query_colluders(&resp);
      const std::int64_t end = now_ns();
      if (!res.ok || res.status != rpc::Status::kOk) {
        ++reader_failed;
      } else {
        for (rating::NodeId id : resp.colluders)
          if (id < flagged.size()) flagged[id] = true;
        for (std::size_t k = 0; k < pairs; ++k) {
          if (seen_at[k] != 0 || acked_at[k].load() == 0) continue;
          if (flagged[s.pairs[k].first] && flagged[s.pairs[k].second])
            seen_at[k] = end;
        }
        last_colluders = std::move(resp.colluders);
      }
      next_poll += kPollNs;
      if (last) break;
    }
  });

  for (auto& t : threads) t.join();
  const std::int64_t t_drain = now_ns();
  {
    const trace::Scope span("service.drain");
    svc->drain();
  }
  out.drain_ms = static_cast<double>(now_ns() - t_drain) / 1e6;
  stop.store(true);
  reader.join();

  std::uint64_t attempted = reader_attempted, failed = reader_failed;
  std::uint64_t closed_acked = 0;
  std::int64_t closed_last = closed_start;
  std::int64_t late = reader_late;
  for (WriterOut& w : writers) {
    attempted += w.attempted;
    failed += w.failed;
    out.submits_acked += w.attempted - w.failed;
    closed_acked += w.closed_acked;
    closed_last = std::max(closed_last, w.last_end);
    late = std::max(late, w.late_max);
  }
  out.gen_late_ms_max = static_cast<double>(late) / 1e6;
  out.ingest_rps = static_cast<double>(closed_acked) /
                   (static_cast<double>(closed_last - closed_start) / 1e9);
  report.ops(attempted, failed);
  report.check(failed == reader_failed, "every_submit_acknowledged",
               std::to_string(failed - reader_failed) + " submits failed");
  report.check(reader_failed == 0, "every_query_answered",
               std::to_string(reader_failed) + " queries failed");

  out.metrics = svc->metrics();
  server->fill_metrics(out.metrics);
  out.scan_threads = out.metrics.epoch_scan_threads;
  const auto applied = static_cast<double>(out.metrics.ratings_applied);
  out.mem_bytes_per_rating =
      static_cast<double>(out.metrics.matrix_bytes) / applied;
  out.wal_bytes_per_rating = static_cast<double>(dir_bytes(dir)) / applied;
  report.check(out.metrics.ratings_applied == out.submits_acked,
               "ratings_applied_equals_acked",
               std::to_string(out.metrics.ratings_applied) + " applied, " +
                   std::to_string(out.submits_acked) + " acked");
  std::vector<std::int64_t> acked_copy(pairs);
  for (std::size_t k = 0; k < pairs; ++k) acked_copy[k] = acked_at[k].load();
  out.ttd_ms = ttd_samples(report, acked_copy, seen_at);
  check_same_ids(report, "colluders_equal_planted", last_colluders,
                 s.colluders);

  server->shutdown();
  server.reset();
  clients.clear();
  svc->stop();
  svc.reset();

  // Reopening the WAL directory must recover every applied rating.
  {
    const trace::Scope span("wal.recover");
    const std::int64_t t0 = now_ns();
    service::ReputationService again(cfg);
    out.recover_ms = static_cast<double>(now_ns() - t0) / 1e6;
    const std::uint64_t recovered = again.metrics().ratings_applied;
    report.check(again.recovered() &&
                     recovered == out.metrics.ratings_applied,
                 "wal_reopen_recovers_applied",
                 std::to_string(recovered) + " recovered, " +
                     std::to_string(out.metrics.ratings_applied) +
                     " applied");
    again.stop();
  }
  return out;
}

}  // namespace

void run_front_door(const Options& o, Report& report) {
  const Shape sh = front_door_shape(o);
  const Stream planted = make_stream(sh.stream, o.seed);
  int round_no = 0;
  auto round = [&](bool measure) {
    const std::string dir = o.work_dir + "/fd" + std::to_string(round_no++);
    std::filesystem::create_directories(dir);
    Round r = run_round(o, sh, measure, dir, report);
    std::filesystem::remove_all(dir);
    return r;
  };

  if (!o.trace) {
    Round r = round(true);
    std::vector<double> setup{r.setup_s};
    while (setup.size() < (o.smoke ? 2u : 5u))
      setup.push_back(round(false).setup_s);
    // Latency quantiles per half second of the open loop, median across
    // those windows (see windowed_quantile).
    const std::vector<double> query = to_us(r.query_ns);
    const auto query_window = static_cast<std::size_t>(sh.rate / 20);
    report.metric("setup_s", median(setup));
    report.metric("ingest_rps", r.ingest_rps);
    report.metric("ttd_ms_p50", quantile(r.ttd_ms, 0.5));
    report.metric("ttd_ms_p90", quantile(r.ttd_ms, 0.9));
    report.metric("query_us_p50", windowed_quantile(query, query_window, 0.5));
    report.metric("mem_bytes_per_rating", r.mem_bytes_per_rating);
    report.metric("peak_rss_mb", peak_rss_mb());
    return;
  }

  const Round plain = round(true);
  trace::set_enabled(true);
  Round traced = round(true);
  ReplaySpec spec;
  spec.shards = 4;
  spec.epoch_ratings = sh.epoch_ratings;
  spec.scan_threads = traced.scan_threads;
  spec.dir = o.work_dir + "/replay";
  spec.cli = o.cli;
  if (o.smoke) spec.cluster_ratings = 2048;
  const std::vector<rating::NodeId> flagged =
      replay_layers(planted, spec, false, report);
  check_same_ids(report, "replay_flagged_equals_planted", flagged,
                 planted.colluders);
  trace::set_enabled(false);

  const service::ServiceMetrics& m = traced.metrics;
  std::vector<double> rtt = to_us(traced.submit_rtt_ns);
  std::vector<double> qrtt = to_us(traced.query_rtt_ns);
  std::vector<double> ack = to_us(traced.ack_ns);
  std::vector<double> plain_ack = to_us(plain.ack_ns);
  report.metric("rpc.submit_rtt_us_p50", quantile(rtt, 0.5));
  report.metric("rpc.submit_rtt_us_p90", quantile(rtt, 0.9));
  report.metric("rpc.query_rtt_us_p50", quantile(qrtt, 0.5));
  report.metric("rpc.shed_frac",
                static_cast<double>(m.rpc_shed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, m.rpc_requests)));
  report.metric("rpc.bytes_in_per_rating",
                static_cast<double>(m.rpc_bytes_in) /
                    static_cast<double>(traced.submits_acked));
  // The server calls try_ingest() internally; no call is visible here.
  report.bypassed("service.ingest_call_");
  report.metric("service.queue_depth_max",
                static_cast<double>(traced.queue_depth_max));
  report.metric("service.drain_ms", traced.drain_ms);
  report.metric("service.epochs", static_cast<double>(m.epochs_completed));
  report.metric("service.epoch_ms_mean", m.epoch_latency_ms_mean);
  report.metric("wal.bytes_per_rating", traced.wal_bytes_per_rating);
  report.metric("wal.recover_ms", traced.recover_ms);
  report.metric("bench.gen_late_ms_max", traced.gen_late_ms_max);
  report.metric("bench.trace_overhead_frac",
                1.0 - traced.ingest_rps / plain.ingest_rps);
  report.metric("bench.trace_overhead_ack_frac",
                quantile(ack, 0.5) / quantile(plain_ack, 0.5) - 1.0);
}

}  // namespace perfbench
