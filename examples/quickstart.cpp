// Quickstart: the smallest end-to-end use of the library.
//
// Build a centralized reputation manager over 10 nodes, feed it honest
// traffic plus one colluding pair, run the Optimized collusion detector,
// and print the evidence. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "detect/optimized_detector.h"
#include "managers/centralized.h"
#include "reputation/summation.h"

int main() {
  using namespace p2prep;

  constexpr std::size_t kNodes = 10;

  // 1. A reputation engine (eBay-style summation) and a manager that owns
  //    the rating matrix and runs detection over it.
  reputation::SummationEngine engine;
  core::DetectorConfig config;      // T_a=0.8, T_b=0.2, T_N=20, T_R=0.05
  managers::CentralizedManager manager(kNodes, engine, config);

  // 2. Honest traffic: clients 2..9 rate servers 8 and 9 mostly
  //    positively, and rate the colluders 0 and 1 negatively (they serve
  //    junk).
  for (rating::NodeId client = 2; client < kNodes; ++client) {
    for (int k = 0; k < 5; ++k) {
      manager.ingest({.rater = client, .ratee = 8,
                      .score = rating::Score::kPositive, .time = 0});
      manager.ingest({.rater = client, .ratee = 0,
                      .score = rating::Score::kNegative, .time = 0});
      manager.ingest({.rater = client, .ratee = 1,
                      .score = rating::Score::kNegative, .time = 0});
    }
  }

  // 3. Collusion: nodes 0 and 1 bombard each other with positives — often
  //    enough to cross T_N and outweigh the crowd's negatives.
  for (int k = 0; k < 60; ++k) {
    manager.ingest({.rater = 0, .ratee = 1,
                    .score = rating::Score::kPositive, .time = 0});
    manager.ingest({.rater = 1, .ratee = 0,
                    .score = rating::Score::kPositive, .time = 0});
  }

  // 4. Publish reputations, then detect.
  manager.update_reputations();
  std::printf("reputations before detection:\n");
  for (rating::NodeId id = 0; id < kNodes; ++id)
    std::printf("  node %u: %.3f%s\n", id, engine.reputation(id),
                id <= 1 ? "   <- colluder (boosted!)" : "");

  detect::OptimizedDetector detector(config);
  const core::DetectionReport report = manager.run_detection(detector);

  std::printf("\ndetected %zu colluding pair(s) at cost %llu work units:\n",
              report.pairs.size(),
              static_cast<unsigned long long>(report.cost.total()));
  for (const core::PairEvidence& e : report.pairs)
    std::printf("  %s\n", e.to_string().c_str());

  std::printf("\nreputations after detection (colluders zeroed):\n");
  for (rating::NodeId id = 0; id < kNodes; ++id)
    std::printf("  node %u: %.3f\n", id, engine.reputation(id));
  return report.pairs.empty() ? 1 : 0;
}
