#include "net/experiment.h"

#include <memory>
#include <unordered_set>

#include "detect/basic_detector.h"
#include "detect/optimized_detector.h"
#include "net/simulator.h"
#include "reputation/eigentrust.h"
#include "reputation/gossiptrust.h"
#include "reputation/peertrust.h"
#include "reputation/summation.h"
#include "reputation/trustguard.h"
#include "reputation/weighted.h"
#include "util/rng.h"

namespace p2prep::net {

std::string to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kWeighted: return "WeightedEigenTrust";
    case EngineKind::kEigenTrust: return "EigenTrust";
    case EngineKind::kSummation: return "Summation";
    case EngineKind::kPeerTrust: return "PeerTrust";
    case EngineKind::kGossipTrust: return "GossipTrust";
    case EngineKind::kTrustGuard: return "TrustGuard";
  }
  return "?";
}

std::string to_string(DetectorKind k) {
  switch (k) {
    case DetectorKind::kNone: return "None";
    case DetectorKind::kBasic: return "Unoptimized";
    case DetectorKind::kOptimized: return "Optimized";
  }
  return "?";
}

namespace {

std::unique_ptr<reputation::ReputationEngine> make_engine(EngineKind kind,
                                                          std::size_t n) {
  switch (kind) {
    case EngineKind::kWeighted:
      return std::make_unique<reputation::WeightedFeedbackEngine>(n);
    case EngineKind::kEigenTrust:
      return std::make_unique<reputation::EigenTrustEngine>(n);
    case EngineKind::kSummation:
      return std::make_unique<reputation::SummationEngine>(n);
    case EngineKind::kPeerTrust:
      return std::make_unique<reputation::PeerTrustEngine>(n);
    case EngineKind::kGossipTrust:
      return std::make_unique<reputation::GossipTrustEngine>(n);
    case EngineKind::kTrustGuard:
      return std::make_unique<reputation::TrustGuardEngine>(n);
  }
  return nullptr;
}

std::unique_ptr<detect::Detector> make_detector(
    DetectorKind kind, const core::DetectorConfig& config) {
  switch (kind) {
    case DetectorKind::kNone:
      return nullptr;
    case DetectorKind::kBasic:
      return std::make_unique<detect::BasicDetector>(config);
    case DetectorKind::kOptimized:
      return std::make_unique<detect::OptimizedDetector>(config);
  }
  return nullptr;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  ExperimentResult result;
  result.runs = spec.runs;
  const std::size_t n = spec.config.num_nodes;
  result.avg_reputation.assign(n, 0.0);
  result.detection_rate.assign(n, 0.0);

  // Ground truth: every endpoint of a collusion edge.
  std::unordered_set<rating::NodeId> truth;
  for (const auto& [u, v] : spec.roles.collusion_edges) {
    truth.insert(u);
    truth.insert(v);
  }

  std::size_t latency_samples = 0;
  for (std::size_t run = 0; run < spec.runs; ++run) {
    SimConfig config = spec.config;
    config.seed = util::mix64(spec.config.seed + 0x9e3779b9ULL * (run + 1));

    auto engine = make_engine(spec.engine, n);
    auto detector = make_detector(spec.detector, spec.detector_config);
    Simulator sim(config, spec.roles, *engine, detector.get());
    sim.run();

    for (std::size_t i = 0; i < n; ++i)
      result.avg_reputation[i] += engine->reputation(
          static_cast<rating::NodeId>(i));
    result.avg_percent_to_colluders += sim.metrics().percent_to_colluders();
    result.avg_total_requests +=
        static_cast<double>(sim.metrics().total_requests);
    result.avg_engine_cost += static_cast<double>(engine->cost().total());
    result.avg_detector_cost +=
        static_cast<double>(sim.detection_cost().total());

    const auto& detected = sim.manager().detected();
    std::size_t hit = 0;
    std::size_t fp = 0;
    for (rating::NodeId id : detected) {
      if (truth.contains(id)) ++hit;
      else ++fp;
    }
    if (!truth.empty())
      result.avg_recall +=
          static_cast<double>(hit) / static_cast<double>(truth.size());
    result.avg_false_positives += static_cast<double>(fp);
    for (rating::NodeId id : detected) result.detection_rate[id] += 1.0;
    for (const auto& [id, cycle] : sim.first_detected_cycle()) {
      if (truth.contains(id)) {
        result.avg_detection_latency += static_cast<double>(cycle + 1);
        ++latency_samples;
      }
    }
  }

  const auto runs = static_cast<double>(spec.runs);
  for (auto& r : result.avg_reputation) r /= runs;
  for (auto& r : result.detection_rate) r /= runs;
  result.avg_percent_to_colluders /= runs;
  result.avg_total_requests /= runs;
  result.avg_engine_cost /= runs;
  result.avg_detector_cost /= runs;
  result.avg_recall /= runs;
  result.avg_false_positives /= runs;
  if (latency_samples > 0)
    result.avg_detection_latency /= static_cast<double>(latency_samples);
  return result;
}

}  // namespace p2prep::net
