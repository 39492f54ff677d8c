// DetectorRegistry unit tests: built-in coverage, fail-fast unknown-name
// errors, duplicate/empty registration rejection, and concurrent
// construction (the service builds one detector per shard in parallel —
// the DetectRegistryConcurrency suite runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "detect/registry.h"
#include "detect/ring_detector.h"
#include "detect/snapshot.h"
#include "rating/matrix.h"

namespace p2prep {
namespace {

using detect::DetectorRegistry;

TEST(DetectRegistryTest, BuiltinsRegisteredAndSorted) {
  DetectorRegistry& reg = DetectorRegistry::global();
  EXPECT_TRUE(reg.contains("basic"));
  EXPECT_TRUE(reg.contains("optimized"));
  EXPECT_TRUE(reg.contains("group"));
  EXPECT_TRUE(reg.contains("ring"));
  EXPECT_FALSE(reg.contains("nope"));

  const std::vector<std::string> names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* builtin : {"basic", "group", "optimized", "ring"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end())
        << builtin;
  }
}

TEST(DetectRegistryTest, CreateReturnsDetectorUnderItsName) {
  const core::DetectorConfig cfg;
  for (const char* name : {"basic", "optimized", "group", "ring"}) {
    const auto detector = DetectorRegistry::global().create(name, cfg);
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_EQ(detector->name(), name);
  }
  // Only the streaming ring detector asks the host for dirty tracking.
  EXPECT_TRUE(DetectorRegistry::global()
                  .create("ring", cfg)
                  ->wants_dirty_tracking());
  EXPECT_FALSE(DetectorRegistry::global()
                   .create("optimized", cfg)
                   ->wants_dirty_tracking());
}

TEST(DetectRegistryTest, UnknownNameThrowsListingEveryRegisteredName) {
  const core::DetectorConfig cfg;
  try {
    (void)DetectorRegistry::global().create("does-not-exist", cfg);
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

TEST(DetectRegistryTest, DuplicateAndEmptyRegistrationThrow) {
  DetectorRegistry& reg = DetectorRegistry::global();
  const auto factory = [](const core::DetectorConfig& cfg) {
    return std::make_unique<detect::RingDetector>(cfg);
  };
  // Unique to this test; the global registry lives for the process.
  const std::string name = "zz-registry-test-plugin";
  ASSERT_FALSE(reg.contains(name));
  reg.register_detector(name, factory);
  EXPECT_TRUE(reg.contains(name));
  EXPECT_EQ(reg.create(name, core::DetectorConfig{})->name(), "ring");
  EXPECT_THROW(reg.register_detector(name, factory), std::invalid_argument);
  EXPECT_THROW(reg.register_detector("ring", factory), std::invalid_argument);
  EXPECT_THROW(reg.register_detector("", factory), std::invalid_argument);
}

// Shards construct their detectors concurrently at service startup; the
// registry (a shared map behind a mutex) must survive parallel create()
// and names() traffic. Runs under TSan via tools/run_static_analysis.sh.
TEST(DetectRegistryConcurrency, ParallelCreateAndListAndDetect) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 40;

  rating::RatingMatrix matrix(8, rating::MatrixBackend::kSparse);
  for (int k = 0; k < 25; ++k) {
    matrix.add_rating(1, 0, rating::Score::kPositive);
    matrix.add_rating(0, 1, rating::Score::kPositive);
  }

  std::vector<std::thread> threads;
  std::vector<std::size_t> created(kThreads, 0);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const core::DetectorConfig cfg;
      for (std::size_t i = 0; i < kIters; ++i) {
        const char* name = (t + i) % 2 == 0 ? "optimized" : "ring";
        auto detector = DetectorRegistry::global().create(name, cfg);
        const core::DetectionReport report =
            detector->on_epoch(detect::EpochSnapshot::of(matrix));
        created[t] += DetectorRegistry::global().names().empty() ? 0 : 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(created[t], kIters);
}

}  // namespace
}  // namespace p2prep
