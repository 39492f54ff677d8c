// Message-latency measurement of a decentralized detection round, on the
// discrete-event kernel (util::EventQueue).
//
// The paper measures detection in abstract work units; a deployed
// DHT-of-managers also pays wall-clock time for its cross-manager check
// messages. This harness replays one detection round's message pattern
// (captured via DecentralizedReputationSystem's cross-check observer)
// through a per-hop latency model and reports when the round completes —
// with managers either pipelining their outstanding checks or issuing them
// sequentially.
#pragma once

#include <cstdint>
#include <string_view>

#include "managers/decentralized.h"

namespace p2prep::managers {

struct LatencyModel {
  double per_hop_ms = 20.0;  ///< Mean one-way per-hop latency.
  double jitter_ms = 10.0;   ///< Uniform jitter added per hop, [0, jitter).
  std::uint64_t seed = 0x6c6174656e6379ULL;
  /// Master switch. The model is injectable into paths that also run over
  /// real transports (the manager cluster's serve loop), where simulated
  /// hops are usually unwanted — disabled() turns every hop into zero cost
  /// and measure_detection_round into a no-op.
  bool enabled = true;

  [[nodiscard]] static LatencyModel disabled() noexcept {
    LatencyModel m;
    m.per_hop_ms = 0.0;
    m.jitter_ms = 0.0;
    m.enabled = false;
    return m;
  }
};

struct RoundLatency {
  /// Virtual time at which the slowest manager finished all its checks.
  double completion_ms = 0.0;
  /// Mean round-trip time of a cross-manager check.
  double avg_check_rtt_ms = 0.0;
  std::size_t cross_checks = 0;
  /// Hop messages simulated (requests hop-by-hop + direct responses).
  std::size_t messages = 0;
  /// Events processed by the kernel (diagnostics).
  std::size_t events = 0;
};

/// Runs one detection round with the detector named `detector` on
/// `system` (without suppressing, so the measurement does not change
/// system state) and simulates its message
/// pattern. `pipelined` = managers keep all checks in flight concurrently;
/// otherwise each manager issues its checks one after another.
[[nodiscard]] RoundLatency measure_detection_round(
    DecentralizedReputationSystem& system, std::string_view detector,
    const LatencyModel& model, bool pipelined = true);

}  // namespace p2prep::managers
