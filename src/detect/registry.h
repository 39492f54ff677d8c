// DetectorRegistry: name -> factory map behind every detector
// instantiation (service shards, the global epoch runner, the CLI's
// one-shot detect command). The process-wide instance registers the four
// built-ins at construction; external code can register additional
// plugins.
// Thread-safe: shards construct their detectors concurrently.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "detect/detector.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace p2prep::detect {

class DetectorRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Detector>(const core::DetectorConfig&)>;

  /// The process-wide registry, built on first use with the built-ins
  /// ("basic", "optimized", "group", "ring") already registered.
  [[nodiscard]] static DetectorRegistry& global();

  /// Registers a factory under `name`. Throws std::invalid_argument when
  /// the name is empty or already taken (plugins must not silently shadow
  /// built-ins).
  void register_detector(std::string name, Factory factory);

  /// Instantiates the detector registered under `name`. Throws
  /// std::invalid_argument naming every registered detector when `name`
  /// is unknown — the fail-fast path behind `--detector`.
  [[nodiscard]] std::unique_ptr<Detector> create(
      std::string_view name, const core::DetectorConfig& config) const;

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Registered names, ascending.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  DetectorRegistry();  // registers the built-ins

  mutable util::Mutex mu_;
  std::map<std::string, Factory, std::less<>> factories_
      P2PREP_GUARDED_BY(mu_);
};

}  // namespace p2prep::detect
