// p2prep command-line tool: generate traces, analyze them, run collusion
// detection over rating dumps, calibrate thresholds, and run the P2P
// simulation — the library's functionality without writing C++.
//
//   p2prep_cli trace amazon --sellers 97 --buyers 20000 --days 365 > t.csv
//   p2prep_cli trace overstock --users 100000 --pairs 60 > o.csv
//   p2prep_cli analyze --in t.csv --threshold 20
//   p2prep_cli detect --in o.csv --from-trace --tn 21 --tr 0
//   p2prep_cli calibrate --in t.csv --from-trace
//   p2prep_cli simulate --colluders 8 --cycles 20 --detector optimized
//   p2prep_cli serve-replay --in o.csv --from-trace --shards 4
//       --epoch-ratings 4096 --wal-dir /tmp/p2prep-wal --report
//   p2prep_cli serve --listen 7400 --nodes 100000 --shards 4
//       --wal-dir /tmp/p2prep-wal          # SIGINT/SIGTERM drain + exit
//   p2prep_cli rate --port 7400 --rater 3 --ratee 9 --score 1
//   p2prep_cli query --port 7400 --node 9
//   p2prep_cli metrics --port 7400
//   p2prep_cli manager --index 0 --ring 127.0.0.1:7500,127.0.0.1:7501
//       --replication 2 --nodes 1000 --data-dir /tmp/mgr0
//   p2prep_cli serve-replay --in o.csv --from-trace
//       --cluster-ring 127.0.0.1:7500,127.0.0.1:7501 --replication 2
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/backend.h"
#include "cluster/manager_node.h"
#include "core/calibration.h"
#include "detect/registry.h"
#include "detect/snapshot.h"
#include "net/experiment.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "service/service.h"
#include "rating/matrix.h"
#include "trace/amazon.h"
#include "trace/analysis.h"
#include "trace/io.h"
#include "trace/overstock.h"
#include "util/table.h"

namespace {

using namespace p2prep;

/// Set by SIGINT/SIGTERM; serve and serve-replay poll it and drain
/// (connections, ingest queues, WAL) instead of dying mid-stream.
volatile std::sig_atomic_t g_shutdown_signal = 0;

extern "C" void handle_shutdown_signal(int sig) { g_shutdown_signal = sig; }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// One flag a subcommand accepts: --name, followed by a value unless the
/// placeholder `value` is empty (a boolean flag).
struct Flag {
  std::string_view name;
  std::string_view value;
};
using Flags = std::vector<Flag>;

/// Concatenates flag groups into one subcommand's table.
Flags flags(std::initializer_list<Flags> groups) {
  Flags out;
  for (const Flags& g : groups) out.insert(out.end(), g.begin(), g.end());
  return out;
}

const Flags kInputFlags{{"in", "FILE"}, {"from-trace", ""}};
const Flags kDetectorFlags{
    {"ta", "F"}, {"tb", "F"}, {"tn", "N"}, {"tr", "F"}, {"one-sided", ""}};
const Flags kServiceFlags = flags(
    {{{"shards", "N"},
      {"epoch-ratings", "N"},
      {"epoch-ticks", "N"},
      {"scope", "global"},
      {"detector", "basic|optimized|group|ring"},
      {"wal-dir", "DIR"},
      {"checkpoint-every", "N"},
      {"queue", "N"}},
     kDetectorFlags});
const Flags kClientFlags{{"port", "PORT"},
                         {"host", "H"},
                         {"connect-timeout-ms", "N"},
                         {"request-timeout-ms", "N"}};

/// --flag value parser over one subcommand's flag table; arguments
/// without a '--' prefix are positional. A flag missing from the table is
/// recorded (unknown()) for the caller to refuse, and reading one the
/// table does not list is a programming error.
class Args {
 public:
  Args(int argc, char** argv, const Flags& table) : table_(table) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        if (!listed(key) && unknown_.empty()) unknown_ = arg;
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[key] = argv[++i];
        } else {
          flags_[key] = "1";  // boolean flag
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  /// The first flag given that the table does not list ("--name"), or
  /// empty.
  [[nodiscard]] const std::string& unknown() const { return unknown_; }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    auto it = find(key);
    return it == flags_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    auto it = find(key);
    return it == flags_.end() ? fallback : std::strtoull(it->second.c_str(),
                                                         nullptr, 10);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    auto it = find(key);
    return it == flags_.end() ? fallback
                              : std::strtod(it->second.c_str(), nullptr);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return find(key) != flags_.end();
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  [[nodiscard]] bool listed(std::string_view key) const {
    return std::any_of(table_.begin(), table_.end(),
                       [key](const Flag& f) { return f.name == key; });
  }
  [[nodiscard]] std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    if (!listed(key))
      throw std::logic_error("flag --" + key + " is read but not listed");
    return flags_.find(key);
  }

  const Flags& table_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::string unknown_;
};

int usage();

/// Loads a ratings vector from --in, converting a 5-star trace when
/// --from-trace is given. Returns false (with a message) on failure.
bool load_ratings(const Args& args, std::vector<rating::Rating>& out) {
  const std::string path = args.get("in");
  if (path.empty()) {
    std::fprintf(stderr, "error: --in FILE is required\n");
    return false;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return false;
  }
  if (args.has("from-trace")) {
    const auto parsed = trace::read_trace_csv(in);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(),
                   parsed.error.line, parsed.error.message.c_str());
      return false;
    }
    out = trace::to_ratings(*parsed.value);
  } else {
    const auto parsed = trace::read_ratings_csv(in);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(),
                   parsed.error.line, parsed.error.message.c_str());
      return false;
    }
    out = *parsed.value;
  }
  return true;
}

/// The window matrix of `ratings`, sized to the largest id. Row scans
/// charge the stored cells: on a paper-scale trace (100,000 Overstock
/// users) a full-row rule would charge n per scan. Self-ratings are
/// dropped: the paper's model has no self-rating channel.
rating::RatingMatrix window_matrix(const std::vector<rating::Rating>& ratings,
                                   std::uint32_t frequency_threshold = 0) {
  rating::NodeId max_id = 0;
  for (const auto& r : ratings) max_id = std::max({max_id, r.rater, r.ratee});
  rating::RatingMatrix matrix(static_cast<std::size_t>(max_id) + 1,
                              rating::ScanCost::kStored);
  matrix.set_frequency_threshold(frequency_threshold);
  for (const auto& r : ratings)
    if (r.rater != r.ratee) matrix.add_rating(r.ratee, r.rater, r.score);
  return matrix;
}

int cmd_trace(const Args& args) {
  if (args.positional().empty()) return usage();
  const std::string kind = args.positional()[0];
  // An unknown kind must not truncate --out on its way to the usage exit.
  if (kind != "amazon" && kind != "overstock") return usage();

  std::ofstream file;
  std::ostream* os = &std::cout;
  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    os = &file;
  }

  if (kind == "amazon") {
    trace::AmazonTraceConfig config;
    config.num_sellers = args.get_u64("sellers", config.num_sellers);
    config.num_buyers = args.get_u64("buyers", config.num_buyers);
    config.days = args.get_u64("days", config.days);
    config.num_suspicious_sellers =
        args.get_u64("suspicious", config.num_suspicious_sellers);
    config.seed = args.get_u64("seed", config.seed);
    const auto tr = trace::generate_amazon_trace(config);
    trace::write_trace_csv(*os, tr.ratings);
    std::fprintf(stderr, "wrote %zu ratings (%zu suspicious sellers)\n",
                 tr.ratings.size(), tr.truth.suspicious_sellers.size());
    return 0;
  }
  trace::OverstockTraceConfig config;
  config.num_users = args.get_u64("users", config.num_users);
  config.num_transactions =
      args.get_u64("transactions", config.num_transactions);
  config.num_collusion_pairs =
      args.get_u64("pairs", config.num_collusion_pairs);
  config.days = args.get_u64("days", config.days);
  config.seed = args.get_u64("seed", config.seed);
  const auto tr = trace::generate_overstock_trace(config);
  trace::write_trace_csv(*os, tr.ratings);
  std::fprintf(stderr, "wrote %zu ratings (%zu colluding pairs)\n",
               tr.ratings.size(), tr.truth.collusion_pairs.size());
  return 0;
}

int cmd_analyze(const Args& args) {
  const std::string path = args.get("in");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 1;
  }
  const auto parsed = trace::read_trace_csv(in);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(),
                 parsed.error.line, parsed.error.message.c_str());
    return 1;
  }
  const trace::Trace& tr = *parsed.value;
  const auto threshold =
      static_cast<std::uint32_t>(args.get_u64("threshold", 20));

  const auto summary = trace::find_suspicious(tr, threshold);
  std::printf("%zu ratings; frequent-pair filter (>= %u): %zu pairs, "
              "%zu ratees, %zu raters\n",
              tr.size(), threshold, summary.pairs.size(),
              summary.sellers.size(), summary.raters.size());
  util::Table table({"rater", "ratee", "count", "positive", "negative"});
  for (std::size_t i = 0; i < summary.pairs.size() && i < 20; ++i) {
    const auto& p = summary.pairs[i];
    table.add_row({util::Table::num(std::uint64_t{p.rater}),
                   util::Table::num(std::uint64_t{p.ratee}),
                   util::Table::num(std::uint64_t{p.count}),
                   util::Table::num(std::uint64_t{p.positive}),
                   util::Table::num(std::uint64_t{p.negative})});
  }
  std::printf("%s", table.render().c_str());

  const auto graph = trace::build_interaction_graph(tr, threshold);
  std::printf("interaction graph (> %u ratings/pair): %zu nodes, %zu edges, "
              "%zu components, %zu triangles, pairwise-only=%s\n",
              threshold, graph.node_count(), graph.edge_count(),
              graph.components().size(), graph.triangle_count(),
              graph.pairwise_only() ? "yes" : "no");
  return 0;
}

core::DetectorConfig detector_config_from(const Args& args) {
  core::DetectorConfig dc;
  dc.positive_fraction_min = args.get_double("ta", dc.positive_fraction_min);
  dc.complement_fraction_max =
      args.get_double("tb", dc.complement_fraction_max);
  dc.frequency_min =
      static_cast<std::uint32_t>(args.get_u64("tn", dc.frequency_min));
  dc.high_rep_threshold = args.get_double("tr", dc.high_rep_threshold);
  dc.require_mutual = !args.has("one-sided");
  return dc;
}

int cmd_detect(const Args& args) {
  std::vector<rating::Rating> ratings;
  if (!load_ratings(args, ratings)) return 1;
  const core::DetectorConfig dc = detector_config_from(args);
  rating::RatingMatrix matrix = window_matrix(ratings, dc.frequency_min);
  for (rating::NodeId i = 0; i < matrix.size(); ++i)
    matrix.set_global_reputation(
        i, static_cast<double>(matrix.window_reputation(i)),
        dc.high_rep_threshold);

  const std::string method = args.get("method", "optimized");
  std::unique_ptr<detect::Detector> detector;
  try {
    detector = detect::make_detector(method, dc);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const core::DetectionReport report =
      detector->on_epoch(detect::EpochSnapshot::of(matrix));
  std::printf("%zu colluding pair(s), %zu ring(s), cost %llu work units\n",
              report.pairs.size(), report.rings.size(),
              static_cast<unsigned long long>(report.cost.total()));
  for (const auto& pair : report.pairs)
    std::printf("  %s\n", pair.to_string().c_str());
  for (const auto& ring : report.rings)
    std::printf("  %s\n", ring.to_string().c_str());
  return 0;
}

int cmd_calibrate(const Args& args) {
  std::vector<rating::Rating> ratings;
  if (!load_ratings(args, ratings)) return 1;
  const core::CalibrationReport r =
      core::calibrate_thresholds(window_matrix(ratings));
  std::printf("pairs=%llu frequent=%llu mean_count=%.2f max_count=%.0f\n"
              "global_pos=%.4f frequent_pos=%.4f frequent_complement=%.4f\n"
              "suggested: --tn %u --ta %.4f --tb %.4f\n",
              static_cast<unsigned long long>(r.rated_pairs),
              static_cast<unsigned long long>(r.frequent_pairs),
              r.mean_pair_count, r.max_pair_count,
              r.global_positive_fraction, r.frequent_positive_fraction,
              r.frequent_complement_fraction, r.suggested.frequency_min,
              r.suggested.positive_fraction_min,
              r.suggested.complement_fraction_max);
  return 0;
}

int cmd_simulate(const Args& args) {
  net::ExperimentSpec spec;
  spec.config.num_nodes = args.get_u64("nodes", 200);
  spec.config.sim_cycles = args.get_u64("cycles", 20);
  spec.config.colluder_good_prob = args.get_double("b", 0.2);
  spec.config.seed = args.get_u64("seed", spec.config.seed);
  spec.runs = args.get_u64("runs", 5);
  spec.roles = net::paper_roles(args.get_u64("colluders", 8),
                                args.get_u64("pretrusted", 3));

  const std::string engine = args.get("engine", "weighted");
  if (engine == "weighted") spec.engine = net::EngineKind::kWeighted;
  else if (engine == "eigentrust") spec.engine = net::EngineKind::kEigenTrust;
  else if (engine == "summation") spec.engine = net::EngineKind::kSummation;
  else if (engine == "peertrust") spec.engine = net::EngineKind::kPeerTrust;
  else if (engine == "gossiptrust")
    spec.engine = net::EngineKind::kGossipTrust;
  else return usage();

  const std::string detector = args.get("detector", "none");
  if (detector == "none") spec.detector = net::DetectorKind::kNone;
  else if (detector == "basic") spec.detector = net::DetectorKind::kBasic;
  else if (detector == "optimized")
    spec.detector = net::DetectorKind::kOptimized;
  else return usage();
  spec.detector_config.positive_fraction_min = args.get_double("ta", 0.9);
  spec.detector_config.complement_fraction_max = args.get_double("tb", 0.7);
  spec.detector_config.frequency_min =
      static_cast<std::uint32_t>(args.get_u64("tn", 20));

  const std::string attack = args.get("attack", "none");
  if (attack == "sybil") {
    spec.roles = net::sybil_roles(args.get_u64("targets", 2),
                                  args.get_u64("sybils", 4),
                                  !args.has("one-way"),
                                  args.get_u64("pretrusted", 3));
  } else if (attack == "traitor") {
    spec.roles = net::traitor_roles(args.get_u64("traitors", 6),
                                    args.get_u64("pretrusted", 3));
  } else if (attack == "whitewash") {
    spec.config.whitewash_on_detection = true;
  } else if (attack != "none") {
    return usage();
  }
  spec.config.collusion_positive_prob =
      args.get_double("camouflage", spec.config.collusion_positive_prob);
  spec.config.churn_leave_prob =
      args.get_double("churn-leave", spec.config.churn_leave_prob);
  spec.config.churn_rejoin_prob =
      args.get_double("churn-rejoin", spec.config.churn_rejoin_prob);

  const net::ExperimentResult r = net::run_experiment(spec);
  std::printf("engine=%s detector=%s runs=%zu\n",
              net::to_string(spec.engine).c_str(),
              net::to_string(spec.detector).c_str(), r.runs);
  std::printf("requests-to-colluders=%.2f%%  recall=%.3f  false_pos=%.2f\n"
              "engine_cost=%.0f  detector_cost=%.0f\n",
              r.avg_percent_to_colluders, r.avg_recall,
              r.avg_false_positives, r.avg_engine_cost, r.avg_detector_cost);
  util::Table table({"node", "avg reputation"});
  for (rating::NodeId id = 0; id < 20 && id < r.avg_reputation.size(); ++id)
    table.add_row({util::Table::num(std::uint64_t{id} + 1),
                   util::Table::num(r.avg_reputation[id], 5)});
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Shared ServiceConfig parsing for serve-replay and serve. Returns false
/// (after printing usage) on an unrecognized enum value.
bool service_config_from(const Args& args, std::size_t num_nodes,
                         service::ServiceConfig& cfg) {
  cfg.num_nodes = num_nodes;
  cfg.num_shards = args.get_u64("shards", 4);
  cfg.queue_capacity = args.get_u64("queue", cfg.queue_capacity);
  cfg.epoch_ratings = args.get_u64("epoch-ratings", 4096);
  cfg.epoch_ticks = args.get_u64("epoch-ticks", 0);
  cfg.detector_config = detector_config_from(args);
  cfg.wal_dir = args.get("wal-dir");
  cfg.checkpoint_every_epochs = args.get_u64("checkpoint-every", 0);

  // Every epoch is global: a scope this build does not run must fail
  // here rather than silently run global epochs.
  if (args.get("scope", "global") != "global") {
    std::fprintf(stderr, "error: --scope: every epoch is global\n");
    return false;
  }

  cfg.detector = args.get("detector", cfg.detector);
  try {  // fail fast on an unknown name, with make_detector's message
    (void)detect::make_detector(cfg.detector, cfg.detector_config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
  return true;
}

/// Parses a comma-separated "host:port,host:port,..." manager ring; empty
/// on malformed input.
std::vector<cluster::ManagerEndpoint> parse_ring(const std::string& spec) {
  std::vector<cluster::ManagerEndpoint> ring;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0) return {};
    const long port = std::strtol(entry.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) return {};
    ring.push_back({entry.substr(0, colon),
                    static_cast<std::uint16_t>(port)});
    pos = comma + 1;
  }
  return ring;
}

/// Applies the --cluster-ring / --replication flags: backs the service's
/// shards with a running manager cluster (decentralized-manager mode).
/// Returns false on a malformed ring spec.
bool apply_cluster_flags(const Args& args, service::ServiceConfig& cfg) {
  if (!args.has("cluster-ring")) return true;
  cluster::ClusterBackendConfig bc;
  bc.ring = parse_ring(args.get("cluster-ring"));
  if (bc.ring.empty()) {
    std::fprintf(stderr, "error: malformed --cluster-ring "
                         "(expect HOST:PORT,HOST:PORT,...)\n");
    return false;
  }
  bc.replication =
      static_cast<std::uint32_t>(args.get_u64("replication", 1));
  bc.num_nodes = cfg.num_nodes;
  cfg.cluster = cluster::make_cluster_backend(bc);
  cfg.num_shards = bc.ring.size();  // cluster range i == service shard i
  cfg.wal_dir.clear();              // the managers own durability
  return true;
}

// Streams a rating file through the sharded online service — the durable
// deployment front-end — and dumps metrics plus detection reports. With
// --wal-dir the run is persisted; re-running over the same directory
// recovers the previous state first and continues from it. With
// --cluster-ring the shards are backed by a running manager cluster
// instead of local state. SIGINT/SIGTERM interrupts the replay but still
// drains and reports before exiting.
int cmd_serve_replay(const Args& args) {
  std::vector<rating::Rating> ratings;
  if (!load_ratings(args, ratings)) return 1;
  if (ratings.empty()) {
    std::fprintf(stderr, "error: no ratings in input\n");
    return 1;
  }
  rating::NodeId max_id = 0;
  for (const auto& r : ratings) max_id = std::max({max_id, r.rater, r.ratee});

  service::ServiceConfig cfg;
  if (!service_config_from(args, static_cast<std::size_t>(max_id) + 1, cfg))
    return usage();
  if (!apply_cluster_flags(args, cfg)) return 1;

  install_signal_handlers();
  try {
    service::ReputationService svc(cfg);
    if (svc.recovered()) {
      const auto m = svc.metrics();
      std::fprintf(stderr,
                   "recovered from '%s': %llu ratings, %llu epochs\n",
                   cfg.wal_dir.c_str(),
                   static_cast<unsigned long long>(m.ratings_applied),
                   static_cast<unsigned long long>(m.epochs_completed));
    }
    std::size_t ingested = 0;
    for (const auto& r : ratings) {
      if (g_shutdown_signal != 0) break;
      svc.ingest(r);
      ++ingested;
    }
    if (g_shutdown_signal != 0)
      std::fprintf(stderr,
                   "signal %d: stopping after %zu/%zu ratings, draining\n",
                   static_cast<int>(g_shutdown_signal), ingested,
                   ratings.size());
    svc.force_epoch();  // close the stream with a final detection pass
    svc.drain();

    const service::ServiceMetrics m = svc.metrics();
    std::printf("%s\n", m.to_string().c_str());
    const service::ServiceSnapshot snap = svc.snapshot();
    std::printf("suspected:");
    for (rating::NodeId i = 0; i < cfg.num_nodes; ++i)
      if (snap.suspected(i)) std::printf(" %u", i);
    std::printf("\n");
    if (args.has("report")) std::printf("%s", svc.report_log().c_str());
    svc.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// Runs the service behind the socket RPC front-end until SIGINT/SIGTERM,
// then drains connections and ingest queues, flushes the WAL via a final
// epoch, and prints final metrics. --in seeds the service from a rating
// file before accepting traffic.
int cmd_serve(const Args& args) {
  if (!args.has("listen")) {
    std::fprintf(stderr, "error: serve requires --listen PORT\n");
    return usage();
  }

  std::vector<rating::Rating> seed;
  std::size_t num_nodes = args.get_u64("nodes", 100000);
  if (args.has("in")) {
    if (!load_ratings(args, seed)) return 1;
    rating::NodeId max_id = 0;
    for (const auto& r : seed) max_id = std::max({max_id, r.rater, r.ratee});
    num_nodes = std::max(num_nodes, static_cast<std::size_t>(max_id) + 1);
  }

  service::ServiceConfig cfg;
  if (!service_config_from(args, num_nodes, cfg)) return usage();
  // A long-running server never reads report_log(); recording it would
  // grow one report per epoch for the life of the process.
  cfg.record_reports = false;

  rpc::RpcServerConfig rcfg;
  rcfg.port = static_cast<std::uint16_t>(args.get_u64("listen", 0));
  rcfg.bind_address = args.get("bind", rcfg.bind_address);
  rcfg.num_workers = args.get_u64("rpc-workers", rcfg.num_workers);
  rcfg.max_connections = args.get_u64("max-conn", rcfg.max_connections);
  rcfg.max_inflight = args.get_u64("max-inflight", rcfg.max_inflight);
  rcfg.idle_timeout_ms =
      static_cast<std::uint32_t>(args.get_u64("idle-timeout-ms",
                                              rcfg.idle_timeout_ms));
  rcfg.request_timeout_ms =
      static_cast<std::uint32_t>(args.get_u64("request-timeout-ms",
                                              rcfg.request_timeout_ms));
  rcfg.shed_backoff_ms =
      static_cast<std::uint32_t>(args.get_u64("shed-backoff-ms",
                                              rcfg.shed_backoff_ms));
  if (!rcfg.valid()) {
    std::fprintf(stderr, "error: invalid rpc server configuration\n");
    return 1;
  }

  install_signal_handlers();
  try {
    service::ReputationService svc(cfg);
    if (svc.recovered()) {
      const auto m = svc.metrics();
      std::fprintf(stderr,
                   "recovered from '%s': %llu ratings, %llu epochs\n",
                   cfg.wal_dir.c_str(),
                   static_cast<unsigned long long>(m.ratings_applied),
                   static_cast<unsigned long long>(m.epochs_completed));
    }
    for (const auto& r : seed) svc.ingest(r);
    if (!seed.empty())
      std::fprintf(stderr, "seeded %zu ratings from '%s'\n", seed.size(),
                   args.get("in").c_str());

    rpc::RpcServer server(svc, rcfg);
    std::fprintf(stderr, "listening on %s:%u (%zu workers)\n",
                 rcfg.bind_address.c_str(), server.port(),
                 rcfg.num_workers);

    const std::uint64_t stats_every_s = args.get_u64("stats-every", 0);
    std::uint64_t ticks = 0;
    while (g_shutdown_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ++ticks;
      if (stats_every_s != 0 && ticks % (stats_every_s * 10) == 0) {
        service::ServiceMetrics m = svc.metrics();
        server.fill_metrics(m);
        std::fprintf(stderr, "%s\n", m.to_string().c_str());
      }
    }

    std::fprintf(stderr, "signal %d: draining connections and queues\n",
                 static_cast<int>(g_shutdown_signal));
    server.shutdown();       // stop accepting, flush in-flight responses
    svc.force_epoch();       // final detection pass over the partial window
    svc.drain();             // WAL is flushed per-record; queues now empty
    service::ServiceMetrics m = svc.metrics();
    server.fill_metrics(m);
    std::printf("%s\n", m.to_string().c_str());
    svc.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// printf-safe copy of the status name (to_string returns a string_view).
std::string status_cstr(rpc::Status s) {
  return std::string(rpc::to_string(s));
}

rpc::RpcClientConfig client_config_from(const Args& args) {
  rpc::RpcClientConfig cfg;
  cfg.host = args.get("host", cfg.host);
  cfg.port = static_cast<std::uint16_t>(args.get_u64("port", 0));
  cfg.connect_timeout_ms =
      static_cast<std::uint32_t>(args.get_u64("connect-timeout-ms",
                                              cfg.connect_timeout_ms));
  cfg.request_timeout_ms =
      static_cast<std::uint32_t>(args.get_u64("request-timeout-ms",
                                              cfg.request_timeout_ms));
  return cfg;
}

bool client_connect(const Args& args, rpc::RpcClient& client) {
  if (!args.has("port")) {
    std::fprintf(stderr, "error: --port PORT is required\n");
    return false;
  }
  std::string error;
  if (!client.connect(&error)) {
    std::fprintf(stderr, "error: connect failed: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Submits one rating over RPC, retrying sheds with the hinted backoff.
int cmd_rate(const Args& args) {
  rpc::RpcClient client(client_config_from(args));
  if (!client_connect(args, client)) return 1;

  rating::Rating r;
  r.rater = static_cast<rating::NodeId>(args.get_u64("rater", 0));
  r.ratee = static_cast<rating::NodeId>(args.get_u64("ratee", 0));
  const long score = std::strtol(args.get("score", "1").c_str(), nullptr, 10);
  r.score = static_cast<rating::Score>(score);
  r.time = args.get_u64("tick", 0);

  const rpc::CallResult res = client.submit_rating_with_retry(r);
  if (!res.ok) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return 1;
  }
  if (res.status != rpc::Status::kOk) {
    std::fprintf(stderr, "rejected: %s\n", status_cstr(res.status).c_str());
    return 1;
  }
  const auto& st = client.stats();
  std::printf("ok (%llu retries, %llu sheds seen)\n",
              static_cast<unsigned long long>(st.retries),
              static_cast<unsigned long long>(st.sheds_seen));
  return 0;
}

// Queries one node's reputation (--node N) or the current colluder list
// (--colluders) from a running server.
int cmd_query(const Args& args) {
  rpc::RpcClient client(client_config_from(args));
  if (!client_connect(args, client)) return 1;

  if (args.has("colluders")) {
    rpc::QueryColludersResponse out;
    const rpc::CallResult res = client.query_colluders(&out);
    if (!res.ok || res.status != rpc::Status::kOk) {
      std::fprintf(stderr, "error: %s\n",
                   res.ok ? status_cstr(res.status).c_str()
                        : res.error.c_str());
      return 1;
    }
    std::printf("%llu suspected%s:",
                static_cast<unsigned long long>(out.total_suspected),
                out.truncated ? " (truncated)" : "");
    for (const auto id : out.colluders) std::printf(" %u", id);
    std::printf("\n");
    return 0;
  }

  if (!args.has("node")) {
    std::fprintf(stderr, "error: query requires --node N or --colluders\n");
    return 1;
  }
  const auto node = static_cast<rating::NodeId>(args.get_u64("node", 0));
  rpc::QueryReputationResponse out;
  const rpc::CallResult res = client.query_reputation(node, &out);
  if (!res.ok || res.status != rpc::Status::kOk) {
    std::fprintf(stderr, "error: %s\n",
                 res.ok ? status_cstr(res.status).c_str()
                        : res.error.c_str());
    return 1;
  }
  std::printf("node=%u reputation=%.6f suspected=%s epoch=%llu shard=%u\n",
              node, out.reputation, out.suspected ? "yes" : "no",
              static_cast<unsigned long long>(out.epoch), out.shard);
  return 0;
}

// Fetches and prints the server's ServiceMetrics snapshot (rpc_* included).
int cmd_metrics(const Args& args) {
  rpc::RpcClient client(client_config_from(args));
  if (!client_connect(args, client)) return 1;

  service::ServiceMetrics m;
  const rpc::CallResult res = client.get_metrics(&m);
  if (!res.ok || res.status != rpc::Status::kOk) {
    std::fprintf(stderr, "error: %s\n",
                 res.ok ? status_cstr(res.status).c_str()
                        : res.error.c_str());
    return 1;
  }
  std::printf("%s\n", m.to_string().c_str());
  return 0;
}

// Admin: resize the running service's shard count online. The server
// answers only after the handoff commits, so the default request timeout
// is raised unless the operator set one explicitly.
int cmd_resize(const Args& args) {
  if (!args.has("shards")) {
    std::fprintf(stderr, "error: resize requires --shards N\n");
    return 1;
  }
  rpc::RpcClientConfig ccfg = client_config_from(args);
  if (!args.has("request-timeout-ms") && !args.has("timeout-ms"))
    ccfg.request_timeout_ms = 60000;
  if (args.has("timeout-ms"))
    ccfg.request_timeout_ms =
        static_cast<std::uint32_t>(args.get_u64("timeout-ms",
                                                ccfg.request_timeout_ms));
  rpc::RpcClient client(ccfg);
  if (!client_connect(args, client)) return 1;

  const auto shards = static_cast<std::uint32_t>(args.get_u64("shards", 0));
  rpc::ResizeResponse out;
  const rpc::CallResult res = client.resize(shards, &out);
  if (!res.ok) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return 1;
  }
  if (res.status != rpc::Status::kOk) {
    std::fprintf(stderr, "resize rejected: %s (service still at %u shards)\n",
                 status_cstr(res.status).c_str(), out.num_shards);
    return 1;
  }
  std::printf("resized to %u shards: %llu keys moved in %llu ms\n",
              out.num_shards,
              static_cast<unsigned long long>(out.keys_moved),
              static_cast<unsigned long long>(out.duration_ms));
  return 0;
}

// Runs one manager process of the multi-process cluster: primary of key
// range --index, replica of the M-1 preceding ranges, serving the
// manager-to-manager RPC surface until SIGINT/SIGTERM. With --data-dir the
// node is durable: kill -9 it, restart with the same flags, and it
// recovers from its WAL + checkpoints, resyncs from live peers and
// rejoins.
int cmd_manager(const Args& args) {
  if (!args.has("index") || !args.has("ring") || !args.has("nodes")) {
    std::fprintf(stderr,
                 "error: manager requires --index I --ring H:P,... "
                 "--nodes N\n");
    return usage();
  }
  cluster::ManagerNodeConfig cfg;
  cfg.index = args.get_u64("index", 0);
  cfg.ring = parse_ring(args.get("ring"));
  if (cfg.ring.empty()) {
    std::fprintf(stderr, "error: malformed --ring "
                         "(expect HOST:PORT,HOST:PORT,...)\n");
    return 1;
  }
  cfg.replication =
      static_cast<std::uint32_t>(args.get_u64("replication", 1));
  cfg.data_dir = args.get("data-dir");
  cfg.bind_address = args.get("bind", cfg.bind_address);
  cfg.port = static_cast<std::uint16_t>(args.get_u64("port", 0));

  cfg.service.num_nodes = args.get_u64("nodes", 0);
  cfg.service.epoch_ratings = args.get_u64("epoch-ratings", 4096);
  cfg.service.detector = args.get("detector", "optimized");
  cfg.service.detector_config = detector_config_from(args);

  if (args.has("latency-ms")) {
    cfg.latency.enabled = true;
    cfg.latency.per_hop_ms = args.get_double("latency-ms", 0.0);
    cfg.latency.jitter_ms = args.get_double("latency-jitter-ms", 0.0);
    cfg.latency.seed = args.get_u64("latency-seed", cfg.latency.seed);
  }

  install_signal_handlers();
  try {
    cluster::ManagerNode node(cfg);
    node.start();
    std::fprintf(stderr, "manager %zu listening on %s:%u (ranges:",
                 cfg.index, cfg.bind_address.c_str(), node.port());
    for (std::size_t r : node.held_ranges())
      std::fprintf(stderr, " %zu", r);
    std::fprintf(stderr, ")\n");
    // The smoke/failover tests read the bound port from this line when
    // --port 0 picked an ephemeral one.
    std::printf("port=%u\n", node.port());
    std::fflush(stdout);

    while (g_shutdown_signal == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::fprintf(stderr, "signal %d: stopping manager %zu\n",
                 static_cast<int>(g_shutdown_signal), cfg.index);
    node.stop();
    std::printf("%s\n", node.metrics_snapshot().to_string().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// One subcommand: its positional arguments, its flag table and its
/// entry point.
struct Command {
  std::string_view name;
  std::string_view positional;
  Flags flags;
  int (*run)(const Args&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table{
      {"trace", "amazon|overstock",
       {{"out", "FILE"},
        {"seed", "N"},
        {"days", "N"},
        {"sellers", "N"},
        {"buyers", "N"},
        {"suspicious", "N"},
        {"users", "N"},
        {"transactions", "N"},
        {"pairs", "N"}},
       cmd_trace},
      {"analyze", "", {{"in", "FILE"}, {"threshold", "N"}}, cmd_analyze},
      {"detect", "",
       flags({kInputFlags,
              {{"method", "basic|optimized|group|ring"}},
              kDetectorFlags}),
       cmd_detect},
      {"calibrate", "", kInputFlags, cmd_calibrate},
      {"simulate", "",
       {{"nodes", "N"},
        {"colluders", "N"},
        {"pretrusted", "N"},
        {"cycles", "N"},
        {"b", "F"},
        {"runs", "N"},
        {"seed", "N"},
        {"engine", "weighted|eigentrust|summation|peertrust|gossiptrust"},
        {"detector", "none|basic|optimized"},
        {"ta", "F"},
        {"tb", "F"},
        {"tn", "N"},
        {"attack", "none|sybil|traitor|whitewash"},
        {"targets", "N"},
        {"sybils", "N"},
        {"one-way", ""},
        {"traitors", "N"},
        {"camouflage", "F"},
        {"churn-leave", "F"},
        {"churn-rejoin", "F"}},
       cmd_simulate},
      {"serve-replay", "",
       flags({kInputFlags,
              kServiceFlags,
              {{"report", ""},
               {"cluster-ring", "H:P,H:P,..."},
               {"replication", "M"}}}),
       cmd_serve_replay},
      {"serve", "",
       flags({{{"listen", "PORT"},
               {"bind", "ADDR"},
               {"nodes", "N"},
               {"rpc-workers", "N"},
               {"max-conn", "N"},
               {"max-inflight", "N"},
               {"idle-timeout-ms", "N"},
               {"request-timeout-ms", "N"},
               {"shed-backoff-ms", "N"},
               {"stats-every", "SECS"}},
              kInputFlags,
              kServiceFlags}),
       cmd_serve},
      {"rate", "",
       flags({kClientFlags,
              {{"rater", "N"},
               {"ratee", "N"},
               {"score", "-1|0|1"},
               {"tick", "N"}}}),
       cmd_rate},
      {"query", "",
       flags({kClientFlags, {{"node", "N"}, {"colluders", ""}}}),
       cmd_query},
      {"metrics", "", kClientFlags, cmd_metrics},
      {"resize", "",
       flags({kClientFlags, {{"shards", "N"}, {"timeout-ms", "N"}}}),
       cmd_resize},
      {"manager", "",
       flags({{{"index", "I"},
               {"ring", "H:P,H:P,..."},
               {"replication", "M"},
               {"nodes", "N"},
               {"data-dir", "DIR"},
               {"bind", "ADDR"},
               {"port", "P"},
               {"detector", "basic|optimized"},
               {"epoch-ratings", "N"},
               {"latency-ms", "F"},
               {"latency-jitter-ms", "F"},
               {"latency-seed", "N"}},
              kDetectorFlags}),
       cmd_manager},
  };
  return table;
}

/// Prints `cmd`'s usage from its flag table, wrapped to 79 columns.
void print_usage(const Command& cmd) {
  std::string line = "  " + std::string(cmd.name);
  if (!cmd.positional.empty()) line += " " + std::string(cmd.positional);
  for (const Flag& f : cmd.flags) {
    std::string item = "[--" + std::string(f.name);
    if (!f.value.empty()) item += " " + std::string(f.value);
    item += "]";
    if (line.size() + 1 + item.size() > 79) {
      std::fprintf(stderr, "%s\n", line.c_str());
      line = "     ";
    }
    line += " " + item;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

int usage() {
  std::fprintf(stderr, "usage: p2prep_cli <command> [flags]\n");
  for (const Command& cmd : commands()) print_usage(cmd);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  for (const Command& cmd : commands()) {
    if (cmd.name != name) continue;
    const Args args(argc, argv, cmd.flags);
    if (!args.unknown().empty()) {
      std::fprintf(stderr, "error: unknown flag %s for %s\nusage:\n",
                   args.unknown().c_str(), argv[1]);
      print_usage(cmd);
      return 2;
    }
    return cmd.run(args);
  }
  return usage();
}
