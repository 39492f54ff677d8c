// Shared plumbing of the perfbench harness: clocks, quantiles, the result
// record every workload fills (metrics, operation counts, correctness
// checks) and its one-line JSON rendering.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds; every timestamp in the harness uses this origin.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Sleeps until 20 us before `deadline_ns`, then spins, so scheduled sends
/// are not charged the kernel's timer slack.
inline void wait_until_ns(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpinNs = 20'000;
  const std::int64_t now = now_ns();
  if (deadline_ns - now > kSpinNs)
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  while (now_ns() < deadline_ns) {
  }
}

/// Nearest-rank quantile q in [0, 1] of `v` (reordered in place); 0 for an
/// empty sample.
template <class T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <class T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

/// The q-quantile of each consecutive window of `per_window` samples (a
/// short trailing window is dropped), then the median across windows: a
/// host stall confined to a few windows does not set the figure.
template <class T>
double windowed_quantile(const std::vector<T>& v, std::size_t per_window,
                         double q) {
  std::vector<double> per;
  for (std::size_t lo = 0; lo < v.size(); lo += per_window) {
    const std::size_t hi = std::min(v.size(), lo + per_window);
    if (hi - lo < per_window && !per.empty()) break;
    std::vector<T> w(v.begin() + static_cast<std::ptrdiff_t>(lo),
                     v.begin() + static_cast<std::ptrdiff_t>(hi));
    per.push_back(quantile(w, q));
  }
  return median(per);
}

/// Nanosecond samples as microseconds.
inline std::vector<double> to_us(const std::vector<std::uint32_t>& ns) {
  std::vector<double> us(ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i)
    us[i] = static_cast<double>(ns[i]) / 1e3;
  return us;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string cli;        ///< p2prep_cli binary (cluster replay managers).
  std::string work_dir;   ///< Scratch space inside the checkout.
  std::string trace_out;  ///< Span dump written at exit (--trace 1).
};

/// Every metric the benchmark defines, with its unit; BENCHMARK.json
/// names the same sets.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// What one run reports: named metrics with units, operation counts and
/// the outcome of every correctness check.
class Report {
 public:
  /// Adds a metric defined in the tables above (the unit comes from
  /// there); an unknown name throws std::logic_error.
  void metric(const std::string& name, double value);
  /// Reports 0 for every not-yet-reported per-layer metric whose name
  /// starts with `prefix`: the workload bypasses that layer.
  void bypassed(const std::string& prefix);
  /// Fails the run unless every metric of the run's set was reported.
  void check_complete(bool per_layer);
  /// Records a correctness check; a failed one is named on stderr and
  /// makes the run exit non-zero.
  void check(bool ok, const std::string& name, const std::string& detail = "");
  /// Counts operations attempted and failed (merged from worker threads).
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return failed_checks_.empty(); }
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failed_checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Total bytes of the regular files directly inside `dir` (0 if missing).
std::uint64_t dir_bytes(const std::string& dir);

}  // namespace perfbench
