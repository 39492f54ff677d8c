// Decentralized deployment scenario (the paper's Fig. 2 / Sec. IV-B):
// reputation management distributed over a Chord DHT of manager nodes.
// Ratings are published with Insert(ID, r) routed through the ring,
// reputation queries use Lookup(ID), and the collusion-detection protocol
// resolves cross-manager pair checks with routed messages.
//
//   ./build/examples/decentralized_managers [nodes] [managers]
#include <cstdio>
#include <cstdlib>

#include "managers/decentralized.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace p2prep;

  std::size_t nodes = 120;
  std::size_t manager_count = 16;
  if (argc > 1) nodes = static_cast<std::size_t>(std::atoi(argv[1]));
  if (argc > 2) manager_count = static_cast<std::size_t>(std::atoi(argv[2]));
  if (nodes < 10 || manager_count == 0 || manager_count > nodes) {
    std::fprintf(stderr, "usage: %s [nodes>=10] [1<=managers<=nodes]\n",
                 argv[0]);
    return 2;
  }

  managers::DecentralizedReputationSystem::Config config;
  config.num_nodes = nodes;
  config.detector.positive_fraction_min = 0.8;
  // Organic raters are few per node here, so allow a little sampling
  // noise in the complement (colluders' organic positives run ~5%).
  config.detector.complement_fraction_max = 0.3;
  config.detector.frequency_min = 20;
  config.detector.high_rep_threshold = 0.0;  // raw summation units

  // The paper's "power nodes": the first `manager_count` node ids form the
  // DHT that shards reputation management.
  std::vector<rating::NodeId> manager_ids;
  for (rating::NodeId id = 0; id < manager_count; ++id)
    manager_ids.push_back(id);
  managers::DecentralizedReputationSystem system(config, manager_ids);

  std::printf("Chord ring: %zu managers over a %zu-bit key space\n",
              system.num_managers(), system.ring().config().bits);

  // Workload: organic ratings plus two colluding pairs (100, 101) and
  // (102, 103).
  util::Rng rng(2012);
  for (int k = 0; k < 40; ++k) {
    system.ingest({100, 101, rating::Score::kPositive, 0});
    system.ingest({101, 100, rating::Score::kPositive, 0});
    system.ingest({102, 103, rating::Score::kPositive, 0});
    system.ingest({103, 102, rating::Score::kPositive, 0});
  }
  for (rating::NodeId rater = 0; rater < nodes; ++rater) {
    for (int k = 0; k < 8; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(nodes));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % nodes);
      const bool target_colludes = ratee >= 100 && ratee <= 103;
      system.ingest({rater, ratee,
                     rng.chance(target_colludes ? 0.05 : 0.85)
                         ? rating::Score::kPositive
                         : rating::Score::kNegative,
                     0});
    }
  }
  std::printf("published ratings with %llu DHT routing messages\n",
              static_cast<unsigned long long>(system.transport_messages()));

  // A client queries a reputation through the ring.
  const auto answer = system.query_reputation(/*requester=*/5, /*target=*/100);
  std::printf("Lookup(100) from node 5: R=%lld via manager %u in %zu hops\n",
              static_cast<long long>(answer.reputation), answer.manager,
              answer.hops);

  // Run the decentralized detection protocol.
  const auto outcome = system.run_detection("optimized");
  util::Table table({"metric", "value"});
  table.add_row({"pairs flagged",
                 util::Table::num(static_cast<std::uint64_t>(
                     outcome.report.pairs.size()))});
  table.add_row({"cross-manager check requests",
                 util::Table::num(outcome.check_requests)});
  table.add_row({"routing hops for checks",
                 util::Table::num(outcome.request_hops)});
  table.add_row({"checks resolved shard-locally",
                 util::Table::num(outcome.local_checks)});
  std::printf("\ndetection outcome:\n%s\n", table.render().c_str());
  for (const core::PairEvidence& e : outcome.report.pairs)
    std::printf("  flagged %s\n", e.to_string().c_str());

  // Detected nodes now answer 0.
  const auto after = system.query_reputation(5, 100);
  std::printf("\nLookup(100) after detection: R=%lld\n",
              static_cast<long long>(after.reputation));
  return outcome.report.pairs.empty() ? 1 : 0;
}
