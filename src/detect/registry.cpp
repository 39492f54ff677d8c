#include "detect/registry.h"

#include <stdexcept>
#include <utility>

#include "detect/basic_detector.h"
#include "detect/group_detector.h"
#include "detect/optimized_detector.h"
#include "detect/ring_detector.h"

namespace p2prep::detect {

DetectorRegistry& DetectorRegistry::global() {
  static DetectorRegistry instance;
  return instance;
}

DetectorRegistry::DetectorRegistry() {
  register_detector("basic", [](const core::DetectorConfig& cfg) {
    return std::make_unique<BasicDetector>(cfg);
  });
  register_detector("optimized", [](const core::DetectorConfig& cfg) {
    return std::make_unique<OptimizedDetector>(cfg);
  });
  register_detector("group", [](const core::DetectorConfig& cfg) {
    return std::make_unique<GroupDetector>(cfg);
  });
  register_detector("ring", [](const core::DetectorConfig& cfg) {
    return std::make_unique<RingDetector>(cfg);
  });
}

void DetectorRegistry::register_detector(std::string name, Factory factory) {
  if (name.empty()) throw std::invalid_argument("empty detector name");
  if (!factory) throw std::invalid_argument("null detector factory");
  const util::MutexLock lock(mu_);
  if (!factories_.emplace(std::move(name), std::move(factory)).second)
    throw std::invalid_argument("detector name already registered");
}

std::unique_ptr<Detector> DetectorRegistry::create(
    std::string_view name, const core::DetectorConfig& config) const {
  Factory factory;
  {
    const util::MutexLock lock(mu_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::string msg = "unknown detector '";
    msg += name;
    msg += "' (registered:";
    for (const std::string& known : names()) {
      msg += ' ';
      msg += known;
    }
    msg += ')';
    throw std::invalid_argument(msg);
  }
  return factory(config);
}

bool DetectorRegistry::contains(std::string_view name) const {
  const util::MutexLock lock(mu_);
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> DetectorRegistry::names() const {
  const util::MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iteration — already ascending
}

}  // namespace p2prep::detect
