#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"ingest_rps", "1/s"},
      {"ttd_ms_p50", "ms"},      {"ttd_ms_p90", "ms"},
      {"query_us_p50", "us"},
      {"mem_bytes_per_rating", "B"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"rpc.submit_rtt_us_p50", "us"},
      {"rpc.submit_rtt_us_p90", "us"},
      {"rpc.query_rtt_us_p50", "us"},
      {"rpc.codec_ns_per_submit", "ns"},
      {"rpc.shed_frac", "frac"},
      {"rpc.bytes_in_per_rating", "B"},
      {"service.ingest_call_us_p50", "us"},
      {"service.ingest_call_us_p99", "us"},
      {"service.queue_depth_max", "count"},
      {"service.drain_ms", "ms"},
      {"service.epochs", "count"},
      {"service.epoch_ms_mean", "ms"},
      {"service.apply_ns_per_rating", "ns"},
      {"reputation.update_ms_per_epoch", "ms"},
      {"detect.sweep_ms_p50", "ms"},
      {"detect.accomplice_ms_p50", "ms"},
      {"detect.accomplice_rounds", "count"},
      {"detect.cost_scans", "count"},
      {"detect.cost_checks", "count"},
      {"detect.pairs_flagged", "count"},
      {"wal.append_us_per_record", "us"},
      {"wal.checkpoint_ms", "ms"},
      {"wal.checkpoint_bytes", "B"},
      {"wal.recover_ms", "ms"},
      {"wal.bytes_per_rating", "B"},
      {"cluster.forward_us_p50", "us"},
      {"cluster.forward_us_p99", "us"},
      {"cluster.pull_ms_per_epoch", "ms"},
      {"cluster.pull_bytes_per_epoch", "B"},
      {"cluster.push_ms_per_epoch", "ms"},
      {"cluster.forwards", "count"},
      {"cluster.failovers", "count"},
      {"cluster.replica_lag", "count"},
      {"bench.gen_late_ms_max", "ms"},
      {"bench.trace_overhead_frac", "frac"},
      {"bench.trace_overhead_ack_frac", "frac"},
  };
  return defs;
}

void Report::metric(const std::string& name, double value) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) {
        metrics_.push_back({name, value, d.unit});
        return;
      }
    }
  }
  throw std::logic_error("undefined metric " + name);
}

void Report::bypassed(const std::string& prefix) {
  for (const MetricDef& d : per_layer_metrics()) {
    const std::string name = d.name;
    const bool seen = std::any_of(metrics_.begin(), metrics_.end(),
                                  [&](const Metric& m) { return m.name == name; });
    if (name.rfind(prefix, 0) == 0 && !seen) metric(name, 0.0);
  }
}

void Report::check_complete(bool per_layer) {
  for (const MetricDef& d :
       per_layer ? per_layer_metrics() : end_to_end_metrics()) {
    const bool seen = std::any_of(
        metrics_.begin(), metrics_.end(),
        [&](const Metric& m) { return m.name == d.name; });
    check(seen, "metric_reported", d.name);
  }
}

void Report::check(bool ok, const std::string& name,
                   const std::string& detail) {
  if (ok) return;
  failed_checks_.push_back(name);
  std::fprintf(stderr, "perfbench: check failed: %s%s%s\n", name.c_str(),
               detail.empty() ? "" : ": ", detail.c_str());
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit; JSON has no NaN/Inf, so clamp those to 0.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
