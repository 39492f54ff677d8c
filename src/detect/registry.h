// make_detector: the one place that maps a detector name to its
// implementation, behind every detector instantiation (service shards,
// the global epoch runner, the CLI's one-shot detect command). The set is
// fixed: the paper's Basic (Sec. IV-B) and Optimized (Sec. IV-C) sweeps
// plus the group and ring extensions. A pure function — callable from any
// thread without synchronization.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "detect/detector.h"

namespace p2prep::detect {

/// Instantiates the built-in detector called `name` ("basic", "group",
/// "optimized" or "ring"). Throws std::invalid_argument naming every
/// detector when `name` is unknown — the fail-fast path behind
/// `--detector`.
[[nodiscard]] std::unique_ptr<Detector> make_detector(
    std::string_view name, const core::DetectorConfig& config);

/// Every name make_detector accepts, ascending.
[[nodiscard]] std::vector<std::string_view> detector_names();

}  // namespace p2prep::detect
