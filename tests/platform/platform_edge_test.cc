// Edge cases, stress shapes, and conservation properties of the platform
// simulator that the behaviour-focused tests do not cover.

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/platform/presets.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kMs = kMicrosPerMilli;

TEST(PlatformEdge, EmptyArrivalsProduceEmptyResult) {
  PlatformSim sim(AwsLambdaPlatform(1.0, 1'769.0), 1);
  const auto result = sim.Run({}, PyAesWorkload());
  EXPECT_TRUE(result.requests.empty());
  EXPECT_TRUE(result.sandboxes.empty());
  EXPECT_EQ(result.cold_starts, 0);
}

// Arrivals are bounded like every other time: negative, decreasing or past
// the duration ceiling, they are an input error.
TEST(PlatformEdge, StartRejectsArrivalsOutsideTheCeiling) {
  const PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  for (const std::vector<MicroSecs>& bad : std::vector<std::vector<MicroSecs>>{
           {-1}, {5 * kSec, kSec}, {0, kMaxDuration + 1}}) {
    PlatformEngine engine(cfg, 1);
    EXPECT_THROW(engine.Start(bad, PyAesWorkload()), std::invalid_argument);
  }
  PlatformEngine engine(cfg, 1);
  EXPECT_NO_THROW(engine.Start({0, kMaxDuration}, PyAesWorkload()));
}

TEST(PlatformEdge, SimultaneousBurstAllComplete) {
  PlatformSim sim(AwsLambdaPlatform(1.0, 1'769.0), 2);
  const std::vector<MicroSecs> arrivals(100, 0);  // 100 requests at t=0.
  const auto result = sim.Run(arrivals, PyAesWorkload());
  ASSERT_EQ(result.requests.size(), 100u);
  for (const auto& r : result.requests) {
    EXPECT_GT(r.completion, 0);
  }
  // Single-concurrency: one sandbox per concurrent request.
  EXPECT_EQ(result.sandboxes.size(), 100u);
  EXPECT_EQ(result.cold_starts, 100);
}

TEST(PlatformEdge, MultiModelSingleInstanceCapDrainsBacklog) {
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.max_instances = 1;
  cfg.autoscaler_enabled = false;
  cfg.concurrency_limit = 4;
  PlatformSim sim(cfg, 3);
  const std::vector<MicroSecs> arrivals(20, 0);
  const auto result = sim.Run(arrivals, PyAesWorkload());
  for (const auto& r : result.requests) {
    EXPECT_GT(r.completion, 0);
  }
  EXPECT_EQ(result.sandboxes.size(), 1u);
  // FIFO-ish: the last queued request finishes last.
  EXPECT_GE(result.requests.back().completion, result.requests.front().completion);
}

TEST(PlatformEdge, ZeroCpuWorkloadStillTakesOverheadTime) {
  WorkloadSpec wl = MinimalWorkload();
  wl.cpu_time = 1;
  wl.cpu_jitter = 0.0;
  PlatformSim sim(AwsLambdaPlatform(1.0, 1'769.0), 4);
  const auto result = sim.Run({0}, wl);
  EXPECT_GE(result.requests[0].reported_duration, 500);  // Serving overhead.
}

TEST(PlatformEdge, IoWaitExtendsDurationWithoutCpuContention) {
  WorkloadSpec wl = PyAesWorkload();
  wl.io_wait = 500 * kMs;
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.autoscaler_enabled = false;
  cfg.serving.jitter = 0.0;
  PlatformSim sim(cfg, 5);
  const auto result = sim.Run({0}, wl);
  // Duration ~ overhead + io_wait + cpu.
  EXPECT_GE(result.requests[0].reported_duration, 660 * kMs);
  EXPECT_LE(result.requests[0].reported_duration, 700 * kMs);
}

TEST(PlatformEdge, WorkConservationUnderContention) {
  // Reported durations are consistent with processor sharing: the total
  // sandbox busy time is at least the total CPU demand (1 vCPU instances).
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.autoscaler_enabled = false;
  PlatformSim sim(cfg, 6);
  const auto result = sim.Run(UniformArrivals(3.0, 60 * kSec), PyAesWorkload());
  double busy = 0.0;
  for (const auto& sb : result.sandboxes) {
    busy += MicrosToSecs(sb.busy_time);
  }
  const double demand =
      static_cast<double>(result.requests.size()) * MicrosToSecs(PyAesWorkload().cpu_time);
  EXPECT_GE(busy, demand * 0.95);
  EXPECT_LE(busy, demand * 1.6);  // Sharing overhead + serving phases.
}

TEST(PlatformEdge, CompletionNeverBeforeStart) {
  PlatformSim sim(GcpPlatform(1.0, 1'024.0), 7);
  Rng rng(7);
  const auto result = sim.Run(PoissonArrivals(8.0, 60 * kSec, rng), PyAesWorkload());
  for (const auto& r : result.requests) {
    EXPECT_GE(r.start_exec, r.arrival);
    EXPECT_GT(r.completion, r.start_exec);
    EXPECT_EQ(r.e2e_latency, r.completion - r.arrival);
  }
}

TEST(PlatformEdge, TimelineMonotoneAndBounded) {
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.max_instances = 16;
  PlatformSim sim(cfg, 8);
  Rng rng(8);
  const auto result = sim.Run(PoissonArrivals(10.0, 120 * kSec, rng), PyAesWorkload());
  MicroSecs prev = -1;
  for (const auto& s : result.timeline) {
    EXPECT_GT(s.time, prev);
    prev = s.time;
    EXPECT_LE(s.instances, 16);
    EXPECT_GE(s.instances, 0);
    EXPECT_GE(s.avg_utilization, 0.0);
    EXPECT_LE(s.avg_utilization, 1.0 + 1e-9);
  }
}

TEST(PlatformEdge, TinyKeepAliveForcesColdStartEveryTime) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.keepalive = MakeFixedKeepAlive(1, KaResourceBehavior::kFreezeDeallocate);
  PlatformSim sim(cfg, 9);
  const auto result = sim.Run(UniformArrivals(0.5, 20 * kSec), PyAesWorkload());
  EXPECT_EQ(result.cold_starts, static_cast<int>(result.requests.size()));
}

TEST(PlatformEdge, SandboxIdsReferenceRealSandboxes) {
  PlatformSim sim(GcpPlatform(1.0, 1'024.0), 10);
  const auto result = sim.Run(UniformArrivals(2.0, 30 * kSec), PyAesWorkload());
  for (const auto& r : result.requests) {
    ASSERT_GE(r.sandbox_id, 0);
    ASSERT_LT(static_cast<size_t>(r.sandbox_id), result.sandboxes.size());
  }
}

TEST(PlatformEdge, FractionalVcpuBelowOneSlowsMinimalWorkToo) {
  PlatformSimConfig cfg = GcpPlatform(0.25, 512.0);
  cfg.autoscaler_enabled = false;
  cfg.serving.jitter = 0.0;
  PlatformSim sim(cfg, 11);
  const auto result = sim.Run({0}, PyAesWorkload());
  // 160 ms CPU at 0.25 vCPUs -> ~640 ms plus overhead.
  EXPECT_GE(result.requests[0].reported_duration, 600 * kMs);
}

TEST(PlatformEdge, ArrivalsFarApartUseIndependentColdStarts) {
  PlatformSimConfig cfg = CloudflarePlatform();
  PlatformSim sim(cfg, 12);
  // Cloudflare's cache keeps the isolate warm across a full day.
  const auto result = sim.Run({0, 43'200LL * kSec}, MinimalWorkload());
  EXPECT_TRUE(result.requests[0].cold_start);
  EXPECT_FALSE(result.requests[1].cold_start);
}

}  // namespace
}  // namespace faascost
