// make_detector unit tests: every built-in constructs under its own name,
// names are listed ascending, and an unknown name fails fast with an
// error that lists every accepted name.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "detect/registry.h"

namespace p2prep {
namespace {

TEST(DetectRegistryTest, BuiltinsRegisteredAndSorted) {
  const std::vector<std::string_view> names = detect::detector_names();
  EXPECT_EQ(names, (std::vector<std::string_view>{"basic", "group",
                                                  "optimized", "ring"}));
}

TEST(DetectRegistryTest, CreateReturnsDetectorUnderItsName) {
  const core::DetectorConfig cfg;
  for (const std::string_view name : detect::detector_names()) {
    const auto detector = detect::make_detector(name, cfg);
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_EQ(detector->name(), name);
  }
  // Only the streaming ring detector asks the host for dirty tracking.
  EXPECT_TRUE(detect::make_detector("ring", cfg)->wants_dirty_tracking());
  EXPECT_FALSE(
      detect::make_detector("optimized", cfg)->wants_dirty_tracking());
}

TEST(DetectRegistryTest, UnknownNameThrowsListingEveryRegisteredName) {
  const core::DetectorConfig cfg;
  try {
    (void)detect::make_detector("does-not-exist", cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does-not-exist"), std::string::npos) << what;
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
    for (const char* builtin : {"basic", "group", "optimized", "ring"}) {
      EXPECT_NE(what.find(builtin), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace p2prep
