// Tests for the cold-start phase model and its platform integration.

#include "src/platform/coldstart.h"

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/platform/presets.h"

namespace faascost {
namespace {

constexpr MicroSecs kMs = kMicrosPerMilli;

TEST(ColdStart, BreakdownSumsToTotal) {
  const ColdStartModel m = PythonColdStart();
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto b = m.Sample(rng);
    EXPECT_EQ(b.total, b.sandbox_provision + b.runtime_boot + b.code_fetch +
                           b.dependency_import + b.user_init);
    EXPECT_GT(b.total, 0);
  }
}

TEST(ColdStart, MedianTotalsOrderAcrossRuntimes) {
  // Wasm isolates << Node < Python << Java, the widely reported ordering.
  const MicroSecs wasm = WasmIsolateColdStart().MedianTotal();
  const MicroSecs node = NodeColdStart().MedianTotal();
  const MicroSecs python = PythonColdStart().MedianTotal();
  const MicroSecs java = JavaColdStart().MedianTotal();
  EXPECT_LT(wasm, node / 10);
  EXPECT_LT(node, python);
  EXPECT_LT(python, java / 3);
}

TEST(ColdStart, SampleMedianNearConfiguredMedian) {
  const ColdStartModel m = PythonColdStart();
  Rng rng(2);
  std::vector<double> totals;
  for (int i = 0; i < 5'000; ++i) {
    totals.push_back(static_cast<double>(m.Sample(rng).total));
  }
  // The sum of per-phase medians under-estimates the median of sums only
  // slightly at these sigmas.
  EXPECT_NEAR(Percentile(totals, 50), static_cast<double>(m.MedianTotal()),
              static_cast<double>(m.MedianTotal()) * 0.15);
}

TEST(ColdStart, ZeroPhaseSamplesZero) {
  InitPhase p;
  p.median = 0;
  Rng rng(3);
  EXPECT_EQ(p.Sample(rng), 0);
}

TEST(ColdStart, JavaDominatedByRuntimeAndDependencies) {
  const ColdStartModel m = JavaColdStart();
  Rng rng(4);
  RunningStats jvm_share;
  for (int i = 0; i < 500; ++i) {
    const auto b = m.Sample(rng);
    jvm_share.Add(static_cast<double>(b.runtime_boot + b.dependency_import) /
                  static_cast<double>(b.total));
  }
  EXPECT_GT(jvm_share.mean(), 0.6);
}

TEST(ColdStartPlatform, ModelDrivesInitDuration) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.coldstart = JavaColdStart();
  PlatformSim sim(cfg, 5);
  const auto result = sim.Run({0}, PyAesWorkload());
  ASSERT_TRUE(result.requests[0].cold_start);
  // Java cold starts run seconds, far beyond the 400 ms default mean.
  EXPECT_GT(result.requests[0].init_duration, 1'000 * kMs);
}

TEST(ColdStartPlatform, WasmModelNearInstant) {
  PlatformSimConfig cfg = CloudflarePlatform();
  cfg.coldstart = WasmIsolateColdStart();
  PlatformSim sim(cfg, 6);
  const auto result = sim.Run({0}, MinimalWorkload());
  EXPECT_LT(result.requests[0].init_duration, 20 * kMs);
}

TEST(ColdStartPlatform, DefaultPathUnchangedWithoutModel) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  ASSERT_FALSE(cfg.coldstart.has_value());
  PlatformSim sim(cfg, 7);
  const auto result = sim.Run({0}, PyAesWorkload());
  EXPECT_NEAR(static_cast<double>(result.requests[0].init_duration), 400'000.0,
              400'000.0 * 0.35);
}

}  // namespace
}  // namespace faascost
