// Ablation: wall-clock cost of a decentralized detection round under a
// per-hop message latency model, vs the size of the manager set, for
// pipelined and sequential managers. Routing hops grow ~log(#managers),
// so the pipelined round time tracks the slowest single check while the
// sequential one stacks round trips.
#include <cstdio>

#include "managers/latency.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace p2prep;

managers::DecentralizedReputationSystem make_system(std::size_t managers_n) {
  managers::DecentralizedReputationSystem::Config config;
  config.num_nodes = 200;
  config.detector.positive_fraction_min = 0.8;
  config.detector.complement_fraction_max = 0.2;
  config.detector.frequency_min = 20;
  config.detector.high_rep_threshold = 0.0;

  std::vector<rating::NodeId> manager_ids;
  for (rating::NodeId id = 0; id < managers_n; ++id)
    manager_ids.push_back(id);
  managers::DecentralizedReputationSystem sys(config, manager_ids);

  util::Rng rng(31415);
  for (std::size_t p = 0; p < 6; ++p) {
    const auto a = static_cast<rating::NodeId>(100 + 2 * p);
    const auto b = static_cast<rating::NodeId>(101 + 2 * p);
    for (int k = 0; k < 40; ++k) {
      sys.ingest({a, b, rating::Score::kPositive, 0});
      sys.ingest({b, a, rating::Score::kPositive, 0});
    }
  }
  for (rating::NodeId rater = 0; rater < 200; ++rater) {
    for (int k = 0; k < 5; ++k) {
      auto ratee = static_cast<rating::NodeId>(rng.next_below(200));
      if (ratee == rater) ratee = static_cast<rating::NodeId>((ratee + 1) % 200);
      const bool colluder = ratee >= 100 && ratee <= 111;
      sys.ingest({rater, ratee,
                  rng.chance(colluder ? 0.05 : 0.85)
                      ? rating::Score::kPositive
                      : rating::Score::kNegative,
                  0});
    }
  }
  return sys;
}

}  // namespace

int main() {
  const managers::LatencyModel model{.per_hop_ms = 20.0, .jitter_ms = 10.0,
                                     .seed = 1};
  util::Table table({"managers", "cross checks", "hop msgs", "avg RTT ms",
                     "pipelined ms", "sequential ms"});

  for (std::size_t managers_n : {8u, 16u, 32u, 64u, 128u}) {
    auto sys = make_system(managers_n);
    const auto pipelined = managers::measure_detection_round(
        sys, "optimized", model, true);
    auto sys2 = make_system(managers_n);
    const auto sequential = managers::measure_detection_round(
        sys2, "optimized", model, false);
    table.add_row(
        {util::Table::num(static_cast<std::uint64_t>(managers_n)),
         util::Table::num(static_cast<std::uint64_t>(pipelined.cross_checks)),
         util::Table::num(static_cast<std::uint64_t>(pipelined.messages)),
         util::Table::num(pipelined.avg_check_rtt_ms, 1),
         util::Table::num(pipelined.completion_ms, 1),
         util::Table::num(sequential.completion_ms, 1)});
  }

  std::printf("=== Ablation: decentralized detection round latency "
              "(per-hop %.0fms + %.0fms jitter) ===\n%s\n",
              model.per_hop_ms, model.jitter_ms, table.render().c_str());
  return 0;
}
