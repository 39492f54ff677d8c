// perfbench: the repository's benchmark command (see perfbench/README.md).
//
//   perfbench --workload detect_sweep|front_door
//             --seed N --seconds S --trace 0|1 [--smoke]
//             --cli PATH --work-dir DIR [--trace-out FILE]
//
// Generates its inputs from the seed, drives the repository through its
// public APIs, checks the outputs, and prints one JSON line last:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The untraced run reports the end-to-end metrics, the traced run the
// per-layer ones. A failed check is named on stderr and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "procs.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "detect_sweep|front_door --seed N --seconds S "
               "--trace 0|1 [--smoke] --cli PATH --work-dir DIR "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--cli") o.cli = value();
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--trace-out") o.trace_out = value();
    else return usage();
  }
  if (o.work_dir.empty() || o.seconds <= 0.0) return usage();
  void (*run)(const Options&, Report&) = nullptr;
  if (o.workload == "detect_sweep") run = run_detect_sweep;
  else if (o.workload == "front_door") run = run_front_door;
  if (run == nullptr || (o.trace && o.cli.empty())) return usage();

  // Fail loudly rather than hang: the watchdog kills any manager and
  // exits well inside the caller's 180 s budget.
  install_guards(o.smoke ? 60.0 : 150.0);
  Report report;
  try {
    run(o, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  report.check_complete(o.trace);
  if (o.trace && !o.trace_out.empty())
    std::fprintf(stderr, "%s", trace::dump(o.trace_out).c_str());
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
