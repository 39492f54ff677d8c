#include "replay.h"

#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "cluster/backend.h"
#include "cluster/client.h"
#include "core/evidence.h"
#include "detect/accomplice_exchange.h"
#include "detect/executor.h"
#include "detect/pair_sweep.h"
#include "detect/snapshot.h"
#include "procs.h"
#include "rpc/protocol.h"
#include "service/shard.h"
#include "service/shard_map.h"
#include "service/wal.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using namespace p2prep;

/// Lends a plain thread pool to the detect layer, as the service lends
/// its scan pool.
class PoolExecutor final : public detect::Executor {
 public:
  explicit PoolExecutor(std::size_t threads) : pool_(threads) {}
  void run(std::size_t num_tasks,
           const std::function<void(std::size_t)>& fn) override {
    pool_.parallel_for(0, num_tasks, fn);
  }
  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return pool_.size();
  }

 private:
  util::ThreadPool pool_;
};

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

/// Request framing and decoding of one SubmitRating per stream rating;
/// returns ns per submit and counts round-trip mismatches in `bad`.
double codec_ns_per_submit(const Stream& s, std::uint64_t& bad) {
  const trace::Scope span("rpc.codec_replay");
  const std::int64_t t0 = now_ns();
  for (const rating::Rating& r : s.ratings) {
    std::string payload;
    rpc::encode_request_header(payload, rpc::MsgType::kSubmitRating,
                               r.time + 1);
    rpc::SubmitRatingRequest{r}.encode(payload);
    const std::string frame = rpc::encode_frame(payload);
    std::string_view view;
    std::size_t consumed = 0;
    if (rpc::try_decode_frame(frame, rpc::kDefaultMaxFrameBytes, &view,
                              &consumed) != rpc::FrameResult::kFrame) {
      ++bad;
      continue;
    }
    rpc::Reader reader(view);
    rpc::RequestHeader header;
    std::optional<rpc::SubmitRatingRequest> req;
    if (rpc::decode_request_header(reader, header))
      req = rpc::SubmitRatingRequest::decode(reader);
    if (!req || !(req->rating == r) || consumed != frame.size()) ++bad;
  }
  return static_cast<double>(now_ns() - t0) /
         static_cast<double>(s.ratings.size());
}

constexpr std::size_t kRing = 3;
constexpr std::uint32_t kReplication = 2;
constexpr std::size_t kClusterEpochs = 8;

/// Forwards a prefix of the stream through three manager processes via
/// cluster::make_cluster_backend, as the decentralized service mode does:
/// one synchronous forwarding thread per key range, and at each of eight
/// epoch positions a state pull of every range plus a push of the
/// verdicts (members of the pairs that crossed T_N by then).
void replay_cluster(const Stream& s, const ReplaySpec& spec, Report& report) {
  const std::size_t limit = std::min(s.ratings.size(), spec.cluster_ratings);
  const std::size_t per_epoch = limit / kClusterEpochs;
  const ManagerProcesses managers(spec.cli, spec.dir + "/cluster", kRing,
                                  kReplication, s.nodes);
  cluster::ClusterBackendConfig bc;
  bc.ring = managers.ring();
  bc.replication = kReplication;
  bc.num_nodes = s.nodes;
  const auto backend = cluster::make_cluster_backend(bc);
  const service::ShardMap map(kRing, s.nodes);

  std::vector<std::vector<std::uint32_t>> forward_ns(kRing);
  std::vector<std::uint64_t> forward_failed(kRing, 0);
  double pull_ms = 0.0, push_ms = 0.0;
  std::uint64_t pull_bytes = 0, applied = 0, epochs = 0;
  std::vector<bool> pushed(s.pairs.size(), false);
  for (std::size_t lo = 0; lo + per_epoch <= limit; lo += per_epoch) {
    const std::size_t hi = lo + per_epoch;
    std::vector<std::thread> workers;
    for (std::size_t k = 0; k < kRing; ++k) {
      workers.emplace_back([&, k] {
        for (std::size_t i = lo; i < hi; ++i) {
          const rating::Rating& r = s.ratings[i];
          if (map.owner(r.ratee) != k) continue;
          const trace::Scope span("cluster.forward", i);
          const std::int64_t t0 = now_ns();
          forward_failed[k] += backend->forward(k, r) ? 0 : 1;
          forward_ns[k].push_back(static_cast<std::uint32_t>(now_ns() - t0));
        }
      });
    }
    for (auto& w : workers) w.join();

    ++epochs;
    applied = 0;
    for (std::size_t range = 0; range < kRing; ++range) {
      const trace::Scope span("cluster.pull", range);
      const std::int64_t t0 = now_ns();
      const std::string blob = backend->pull(range);
      pull_ms += ms_since(t0);
      pull_bytes += blob.size();
      const auto ckpt = service::parse_checkpoint(blob);
      applied += ckpt ? ckpt->applied_total : 0;
    }
    std::vector<rating::NodeId> verdicts;
    for (std::size_t k = 0; k < s.pairs.size(); ++k) {
      if (pushed[k] || s.crossing[k] >= hi) continue;
      pushed[k] = true;
      verdicts.push_back(s.pairs[k].first);
      verdicts.push_back(s.pairs[k].second);
    }
    std::sort(verdicts.begin(), verdicts.end());
    const trace::Scope span("cluster.push", epochs);
    const std::int64_t t0 = now_ns();
    report.check(backend->push(epochs, verdicts), "cluster_push_committed",
                 "epoch " + std::to_string(epochs));
    push_ms += ms_since(t0);
  }

  std::uint64_t failed = 0, failovers = backend->failovers(), lag = 0;
  std::vector<double> fwd;
  for (std::size_t k = 0; k < kRing; ++k) {
    failed += forward_failed[k];
    const std::vector<double> us = to_us(forward_ns[k]);
    fwd.insert(fwd.end(), us.begin(), us.end());
  }
  cluster::ClusterClientConfig cc;
  cc.ring = managers.ring();
  cc.replication = kReplication;
  cc.num_nodes = s.nodes;
  cc.source = 1ull << 40;  // disjoint from the backend's sources
  cluster::ClusterClient admin(cc);
  for (std::size_t i = 0; i < kRing; ++i) {
    service::ServiceMetrics m;
    report.check(admin.get_metrics(i, &m), "manager_metrics_answered",
                 "manager " + std::to_string(i));
    failovers += m.cluster_failovers;
    lag += m.cluster_replica_lag;
  }
  const std::uint64_t forwarded = epochs * per_epoch;
  report.check(failed == 0, "cluster_forwards_acknowledged",
               std::to_string(failed) + " forwards failed");
  report.check(applied == forwarded, "cluster_state_holds_every_forward",
               std::to_string(applied) + " applied, " +
                   std::to_string(forwarded) + " forwarded");
  report.check(failovers == 0, "no_failovers", std::to_string(failovers));
  report.check(lag == 0, "no_replica_lag", std::to_string(lag));

  const auto per = static_cast<double>(std::max<std::uint64_t>(1, epochs));
  report.metric("cluster.forward_us_p50", quantile(fwd, 0.5));
  report.metric("cluster.forward_us_p99", quantile(fwd, 0.99));
  report.metric("cluster.pull_ms_per_epoch", pull_ms / per);
  report.metric("cluster.pull_bytes_per_epoch",
                static_cast<double>(pull_bytes) / per);
  report.metric("cluster.push_ms_per_epoch", push_ms / per);
  report.metric("cluster.forwards", static_cast<double>(forwarded - failed));
  report.metric("cluster.failovers", static_cast<double>(failovers));
  report.metric("cluster.replica_lag", static_cast<double>(lag));
}

}  // namespace

std::vector<rating::NodeId> replay_layers(const Stream& s,
                                          const ReplaySpec& spec,
                                          bool with_recover, Report& report) {
  service::ServiceConfig cfg;
  cfg.num_nodes = s.nodes;
  cfg.num_shards = spec.shards;
  cfg.epoch_ratings = spec.epoch_ratings;
  cfg.detector_config = spec.detector;
  cfg.record_reports = false;
  const service::ShardMap map(spec.shards, s.nodes);
  std::vector<std::unique_ptr<service::ServiceShard>> shards;
  for (std::size_t i = 0; i < spec.shards; ++i)
    shards.push_back(std::make_unique<service::ServiceShard>(i, cfg));
  PoolExecutor executor(spec.scan_threads);
  auto owner = [&](rating::NodeId id) -> service::ServiceShard& {
    return *shards[map.owner(id)];
  };

  const std::size_t n = s.ratings.size();
  const std::size_t per_epoch = spec.epoch_ratings;
  double apply_ns = 0.0;
  std::vector<double> update_ms, sweep_ms, accomplice_ms;
  std::uint64_t rounds = 0, scans = 0, checks = 0, pairs = 0, epochs = 0;
  std::vector<bool> flagged(s.nodes, false);

  for (std::size_t next = 0; next < n;) {
    const std::size_t end = std::min(n, next + per_epoch);
    {
      const trace::Scope span("service.apply_replay", epochs);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = next; i < end; ++i)
        owner(s.ratings[i].ratee).apply_rating(s.ratings[i]);
      apply_ns += static_cast<double>(now_ns() - t0);
    }
    const bool epoch_due = end - next == per_epoch;
    next = end;
    if (!epoch_due) break;

    const trace::Scope epoch_span("replay.epoch", ++epochs);
    std::int64_t t0 = now_ns();
    {
      const trace::Scope span("reputation.update", epochs);
      for (auto& sh : shards) sh->manager().update_reputations();
    }
    update_ms.push_back(ms_since(t0));

    detect::EpochSnapshot snap;
    for (auto& sh : shards) snap.matrices.push_back(&sh->manager().matrix());
    if (snap.matrices.size() > 1) snap.owners = map.owners();
    snap.executor = &executor;
    core::DetectionReport detection;
    t0 = now_ns();
    {
      const trace::Scope span("detect.sweep", epochs);
      detection = detect::sweep_optimized(snap, spec.detector);
    }
    sweep_ms.push_back(ms_since(t0));
    t0 = now_ns();
    {
      const trace::Scope span("detect.accomplice", epochs);
      rounds += detect::propagate_accomplices(snap, spec.detector, detection);
    }
    accomplice_ms.push_back(ms_since(t0));
    scans += detection.cost.element_scans;
    checks += detection.cost.checks;
    pairs += detection.pairs.size();

    // Suppression exactly as the service's global epoch applies it.
    const std::vector<rating::NodeId> ids = detection.colluders();
    if (!ids.empty()) {
      const trace::Scope span("reputation.suppress", epochs);
      for (rating::NodeId id : ids) {
        owner(id).manager().restore_detected({id});
        owner(id).engine().reset_reputation(id);
        flagged[id] = true;
      }
      for (auto& sh : shards) sh->manager().update_reputations();
    }
  }

  // WAL append: every rating to its owner shard's log, markers at epochs.
  std::filesystem::create_directories(spec.dir);
  std::vector<std::string> wal_paths, ckpt_paths;
  std::vector<std::unique_ptr<service::WalWriter>> writers;
  for (std::size_t i = 0; i < spec.shards; ++i) {
    wal_paths.push_back(spec.dir + "/replay-" + std::to_string(i) + ".wal");
    ckpt_paths.push_back(spec.dir + "/replay-" + std::to_string(i) + ".ckpt");
    writers.push_back(std::make_unique<service::WalWriter>(
        service::WalWriter::create(wal_paths.back(), 1, 0,
                                   static_cast<std::uint32_t>(spec.shards))));
  }
  std::uint64_t records = 0;
  double append_ns = 0.0;
  {
    const trace::Scope span("wal.append_replay");
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      writers[map.owner(s.ratings[i].ratee)]->append(
          service::WalRecord::make_rating(s.ratings[i]));
      ++records;
      if ((i + 1) % per_epoch == 0) {
        for (auto& w : writers)
          w->append(service::WalRecord::make_marker((i + 1) / per_epoch));
        records += writers.size();
      }
    }
    append_ns = static_cast<double>(now_ns() - t0);
  }
  writers.clear();

  double checkpoint_ms = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  for (std::size_t i = 0; i < spec.shards; ++i) {
    const trace::Scope span("wal.checkpoint", i);
    const std::int64_t t0 = now_ns();
    const auto ckpt = shards[i]->make_checkpoint();
    const bool ok = ckpt && service::write_checkpoint(ckpt_paths[i], *ckpt);
    checkpoint_ms += ms_since(t0);
    report.check(ok, "replay_checkpoint_written", ckpt_paths[i]);
    if (ok) checkpoint_bytes += std::filesystem::file_size(ckpt_paths[i]);
  }

  if (with_recover) {
    const trace::Scope span("wal.recover_replay");
    const std::int64_t t0 = now_ns();
    std::uint64_t read_back = 0;
    bool ckpts_ok = true;
    for (std::size_t i = 0; i < spec.shards; ++i) {
      read_back += service::read_wal(wal_paths[i]).records.size();
      ckpts_ok = ckpts_ok && service::read_checkpoint(ckpt_paths[i]);
    }
    report.metric("wal.recover_ms", ms_since(t0));
    report.check(read_back == records && ckpts_ok, "replay_wal_reads_back",
                 std::to_string(read_back) + " of " + std::to_string(records) +
                     " records");
  }

  std::uint64_t codec_bad = 0;
  const double codec_ns = codec_ns_per_submit(s, codec_bad);
  report.check(codec_bad == 0, "replay_codec_round_trip",
               std::to_string(codec_bad) + " mismatches");

  report.metric("service.apply_ns_per_rating",
                apply_ns / static_cast<double>(n));
  report.metric("reputation.update_ms_per_epoch", mean(update_ms));
  report.metric("detect.sweep_ms_p50", median(sweep_ms));
  report.metric("detect.accomplice_ms_p50", median(accomplice_ms));
  report.metric("detect.accomplice_rounds", static_cast<double>(rounds));
  report.metric("detect.cost_scans", static_cast<double>(scans));
  report.metric("detect.cost_checks", static_cast<double>(checks));
  report.metric("detect.pairs_flagged", static_cast<double>(pairs));
  report.metric("wal.append_us_per_record",
                append_ns / 1e3 / static_cast<double>(records));
  report.metric("wal.checkpoint_ms", checkpoint_ms);
  report.metric("wal.checkpoint_bytes", static_cast<double>(checkpoint_bytes));
  report.metric("rpc.codec_ns_per_submit", codec_ns);

  replay_cluster(s, spec, report);

  std::vector<rating::NodeId> out;
  for (rating::NodeId i = 0; i < s.nodes; ++i)
    if (flagged[i]) out.push_back(i);
  return out;
}

}  // namespace perfbench
