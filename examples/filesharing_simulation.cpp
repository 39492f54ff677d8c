// P2P file-sharing scenario (the paper's Sec. V workload, the motivation
// in its introduction): 200 peers in interest clusters share files; eight
// of them collude in pairs to inflate each other's reputations while
// serving junk. We run the same network twice — EigenTrust alone, then
// EigenTrust with the Optimized collusion detector attached — and compare
// who the traffic goes to.
//
//   ./build/examples/filesharing_simulation [colluders] [sim_cycles]
#include <cstdio>
#include <cstdlib>

#include "detect/optimized_detector.h"
#include "net/simulator.h"
#include "reputation/weighted.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2prep;

  std::size_t colluders = 8;
  net::SimConfig config;  // paper defaults: 200 nodes, 20 interests, ...
  if (argc > 1) colluders = static_cast<std::size_t>(std::atoi(argv[1]));
  if (argc > 2) config.sim_cycles = static_cast<std::size_t>(std::atoi(argv[2]));
  if (colluders % 2 != 0 || colluders == 0 ||
      colluders + 3 > config.num_nodes) {
    std::fprintf(stderr, "colluders must be a positive even count < %zu\n",
                 config.num_nodes - 3);
    return 2;
  }

  const net::NodeRoles roles = net::paper_roles(colluders, 3);

  core::DetectorConfig detector_config;
  detector_config.positive_fraction_min = 0.9;
  detector_config.complement_fraction_max = 0.7;
  detector_config.frequency_min = 20;
  detector_config.high_rep_threshold = 0.05;

  // Run 1: EigenTrust alone.
  reputation::WeightedFeedbackEngine baseline_engine;
  net::Simulator baseline(config, roles, baseline_engine);
  baseline.run();

  // Run 2: EigenTrust + Optimized collusion detection.
  reputation::WeightedFeedbackEngine protected_engine;
  detect::OptimizedDetector detector(detector_config);
  net::Simulator defended(config, roles, protected_engine, &detector);
  defended.run();

  util::Table table({"metric", "EigenTrust", "EigenTrust+Optimized"});
  table.add_row({"requests to colluders (%)",
                 util::Table::num(baseline.metrics().percent_to_colluders(), 2),
                 util::Table::num(defended.metrics().percent_to_colluders(), 2)});
  table.add_row({"inauthentic files",
                 util::Table::num(baseline.metrics().inauthentic_files),
                 util::Table::num(defended.metrics().inauthentic_files)});
  table.add_row({"total requests",
                 util::Table::num(baseline.metrics().total_requests),
                 util::Table::num(defended.metrics().total_requests)});
  table.add_row({"colluders detected", "0",
                 util::Table::num(static_cast<std::uint64_t>(
                     defended.manager().detected().size()))});
  table.add_row({"detection cost (work units)", "0",
                 util::Table::num(defended.detection_cost().total())});

  std::printf("P2P file sharing, %zu nodes, %zu colluders, %zu cycles\n\n%s\n",
              config.num_nodes, colluders, config.sim_cycles,
              table.render().c_str());

  std::printf("final reputations of the colluders under detection:\n");
  for (rating::NodeId id : roles.colluders)
    std::printf("  node %u: %.5f\n", id + 1, protected_engine.reputation(id));
  return 0;
}
