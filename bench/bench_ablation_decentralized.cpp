// Ablation: decentralized deployment costs. Runs the same detection
// workload through the DHT-of-managers protocol with varying manager-set
// sizes and reports check requests, routing hops and total messages —
// the communication side of the method the paper describes but does not
// measure.
#include <cstdio>
#include <string_view>

#include "core/config.h"
#include "managers/decentralized.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace p2prep;

/// Plants `pairs` colluding pairs plus organic background over n nodes.
void feed(managers::DecentralizedReputationSystem& sys, std::size_t n,
          std::size_t pairs, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto a = static_cast<rating::NodeId>(2 * p);
    const auto b = static_cast<rating::NodeId>(2 * p + 1);
    for (int k = 0; k < 40; ++k) {
      sys.ingest({a, b, rating::Score::kPositive, 0});
      sys.ingest({b, a, rating::Score::kPositive, 0});
    }
  }
  for (rating::NodeId rater = 0; rater < n; ++rater) {
    for (int k = 0; k < 5; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(n));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % n);
      sys.ingest({rater, ratee,
                  rng.chance(ratee < 2 * pairs ? 0.1 : 0.85)
                      ? rating::Score::kPositive
                      : rating::Score::kNegative,
                  0});
    }
  }
}

}  // namespace

int main() {
  constexpr std::size_t kNodes = 200;
  constexpr std::size_t kPairs = 4;

  std::printf("=== Ablation: decentralized detection message costs "
              "(n=%zu, %zu colluding pairs) ===\n",
              kNodes, kPairs);
  util::Table table({"managers", "method", "pairs_found", "check_requests",
                     "request_hops", "ingest_msgs", "local_checks"});

  for (std::size_t managers : {10u, 25u, 50u, 100u, 200u}) {
    for (const char* detector : {"basic", "optimized"}) {
      managers::DecentralizedReputationSystem::Config config;
      config.num_nodes = kNodes;
      config.detector.positive_fraction_min = 0.8;
      config.detector.complement_fraction_max = 0.2;
      config.detector.frequency_min = 20;
      config.detector.high_rep_threshold = 0.0;

      std::vector<rating::NodeId> manager_ids;
      for (rating::NodeId id = 0; id < managers; ++id)
        manager_ids.push_back(id);
      managers::DecentralizedReputationSystem sys(config, manager_ids);
      feed(sys, kNodes, kPairs, 1234);
      const std::uint64_t ingest_msgs = sys.transport_messages();

      const auto outcome = sys.run_detection(detector);
      table.add_row(
          {util::Table::num(static_cast<std::uint64_t>(managers)),
           std::string_view(detector) == "basic" ? "Unoptimized"
                                                 : "Optimized",
           util::Table::num(
               static_cast<std::uint64_t>(outcome.report.pairs.size())),
           util::Table::num(outcome.check_requests),
           util::Table::num(outcome.request_hops),
           util::Table::num(ingest_msgs),
           util::Table::num(outcome.local_checks)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("note: hops grow ~log(managers); a larger manager set spreads "
              "shards so more pair checks cross managers\n");
  return 0;
}
