#include "detect/registry.h"

#include <stdexcept>
#include <string>

#include "detect/basic_detector.h"
#include "detect/group_detector.h"
#include "detect/optimized_detector.h"
#include "detect/ring_detector.h"

namespace p2prep::detect {

namespace {

template <class D>
std::unique_ptr<Detector> make(const core::DetectorConfig& config) {
  return std::make_unique<D>(config);
}

struct Builtin {
  std::string_view name;
  std::unique_ptr<Detector> (*make)(const core::DetectorConfig&);
};

// Ascending by name.
constexpr Builtin kBuiltins[] = {
    {"basic", &make<BasicDetector>},
    {"group", &make<GroupDetector>},
    {"optimized", &make<OptimizedDetector>},
    {"ring", &make<RingDetector>},
};

}  // namespace

std::unique_ptr<Detector> make_detector(std::string_view name,
                                        const core::DetectorConfig& config) {
  for (const Builtin& b : kBuiltins)
    if (b.name == name) return b.make(config);
  std::string msg = "unknown detector '";
  msg += name;
  msg += "' (registered:";
  for (const Builtin& b : kBuiltins) {
    msg += ' ';
    msg += b.name;
  }
  msg += ')';
  throw std::invalid_argument(msg);
}

std::vector<std::string_view> detector_names() {
  std::vector<std::string_view> out;
  for (const Builtin& b : kBuiltins) out.push_back(b.name);
  return out;
}

}  // namespace p2prep::detect
