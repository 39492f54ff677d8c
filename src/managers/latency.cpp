#include "managers/latency.h"

#include <algorithm>
#include <map>
#include <vector>

#include "util/event_queue.h"
#include "util/rng.h"

namespace p2prep::managers {

RoundLatency measure_detection_round(DecentralizedReputationSystem& system,
                                     std::string_view detector,
                                     const LatencyModel& model,
                                     bool pipelined) {
  if (!model.enabled) return RoundLatency{};
  struct Check {
    rating::NodeId from;
    rating::NodeId to;
    std::size_t hops;
  };
  std::vector<Check> checks;
  system.set_cross_check_observer(
      [&checks](rating::NodeId from, rating::NodeId to, std::size_t hops) {
        checks.push_back({from, to, hops});
      });
  (void)system.run_detection(detector, /*suppress=*/false);
  system.set_cross_check_observer(nullptr);

  RoundLatency result;
  result.cross_checks = checks.size();

  util::Rng rng(model.seed);
  util::EventQueue queue;
  std::map<rating::NodeId, double> manager_ready;  // next send slot
  double completion = 0.0;
  double rtt_sum = 0.0;

  for (const Check& check : checks) {
    // Request routes hop by hop; the response returns directly (the
    // requester's address travels with the request).
    double rtt = 0.0;
    for (std::size_t h = 0; h < check.hops; ++h) {
      rtt += model.per_hop_ms + rng.uniform(0.0, model.jitter_ms);
      ++result.messages;
    }
    rtt += model.per_hop_ms + rng.uniform(0.0, model.jitter_ms);  // response
    ++result.messages;
    rtt_sum += rtt;

    double start = 0.0;
    if (!pipelined) {
      double& ready = manager_ready[check.from];
      start = ready;
      ready += rtt;  // next check waits for this one's response
    }
    queue.schedule(start + rtt, [&completion, &queue] {
      completion = std::max(completion, queue.now());
    });
  }

  result.events = queue.run();
  result.completion_ms = completion;
  result.avg_check_rtt_ms =
      checks.empty() ? 0.0 : rtt_sum / static_cast<double>(checks.size());
  return result;
}

}  // namespace p2prep::managers
