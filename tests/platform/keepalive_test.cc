#include "src/platform/keepalive.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/sched/bandwidth_sim.h"

namespace faascost {
namespace {

TEST(KeepAlive, AwsWindowBetween300And360) {
  const KeepAlivePolicy policy = MakeAwsKeepAlive();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const MicroSecs d = policy.SampleDuration(rng, 1);
    EXPECT_GE(d, 300LL * kMicrosPerSec);
    EXPECT_LE(d, 360LL * kMicrosPerSec);
  }
}

TEST(KeepAlive, AwsBehavior) {
  const KeepAlivePolicy policy = MakeAwsKeepAlive();
  EXPECT_EQ(policy.resource_behavior(), KaResourceBehavior::kFreezeDeallocate);
  EXPECT_DOUBLE_EQ(policy.KaCpuShare(1.0), 0.0);  // Frozen: no CPU.
  EXPECT_TRUE(policy.graceful_shutdown());        // Lambda Extensions.
}

TEST(KeepAlive, GcpWindowNear900) {
  const KeepAlivePolicy policy = MakeGcpKeepAlive();
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const MicroSecs d = policy.SampleDuration(rng, 1);
    EXPECT_GE(d, 850LL * kMicrosPerSec);
    EXPECT_LE(d, 900LL * kMicrosPerSec);
  }
}

TEST(KeepAlive, GcpScalesCpuToOneHundredth) {
  const KeepAlivePolicy policy = MakeGcpKeepAlive();
  EXPECT_EQ(policy.resource_behavior(), KaResourceBehavior::kScaleDownCpu);
  // 0.01 vCPUs available regardless of allocation.
  EXPECT_NEAR(policy.KaCpuShare(1.0) * 1.0, 0.01, 1e-9);
  EXPECT_NEAR(policy.KaCpuShare(0.5) * 0.5, 0.01, 1e-9);
  EXPECT_FALSE(policy.graceful_shutdown());  // Killed without SIGTERM.
}

TEST(KeepAlive, AzureOpportunisticWindow) {
  const KeepAlivePolicy policy = MakeAzureKeepAlive();
  Rng rng(3);
  MicroSecs lo = kUnlimitedDemand;
  MicroSecs hi = 0;
  for (int i = 0; i < 1'000; ++i) {
    const MicroSecs d = policy.SampleDuration(rng, 1);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    EXPECT_GE(d, 120LL * kMicrosPerSec);
    EXPECT_LE(d, 360LL * kMicrosPerSec);
  }
  // The window actually varies (opportunistic), it is not a fixed value.
  EXPECT_GT(hi - lo, 100LL * kMicrosPerSec);
}

TEST(KeepAlive, AzureExtendedWhenScaledOut) {
  // Paper §3.3: ~740 s observed for a function scaled to 3 instances.
  const KeepAlivePolicy policy = MakeAzureKeepAlive();
  Rng rng(4);
  MicroSecs hi = 0;
  for (int i = 0; i < 1'000; ++i) {
    const MicroSecs d = policy.SampleDuration(rng, 3);
    EXPECT_LE(d, 740LL * kMicrosPerSec);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi, 600LL * kMicrosPerSec);
}

TEST(KeepAlive, AzureKeepsFullResources) {
  const KeepAlivePolicy policy = MakeAzureKeepAlive();
  EXPECT_EQ(policy.resource_behavior(), KaResourceBehavior::kRunAsUsual);
  EXPECT_DOUBLE_EQ(policy.KaCpuShare(1.0), 1.0);
}

TEST(KeepAlive, CloudflareEffectivelyUnbounded) {
  const KeepAlivePolicy policy = MakeCloudflareKeepAlive();
  Rng rng(5);
  EXPECT_GE(policy.SampleDuration(rng, 1), 3'600LL * kMicrosPerSec);
  EXPECT_EQ(policy.resource_behavior(), KaResourceBehavior::kCodeCache);
}

TEST(KeepAlive, FixedPolicy) {
  const KeepAlivePolicy policy =
      MakeFixedKeepAlive(42LL * kMicrosPerSec, KaResourceBehavior::kRunAsUsual);
  Rng rng(6);
  EXPECT_EQ(policy.SampleDuration(rng, 1), 42LL * kMicrosPerSec);
  EXPECT_EQ(policy.SampleDuration(rng, 10), 42LL * kMicrosPerSec);
  EXPECT_DOUBLE_EQ(policy.KaCpuShare(1.0), 1.0);
}

TEST(KeepAlive, FixedPolicyNonRunBehaviorHasNoCpu) {
  const KeepAlivePolicy policy =
      MakeFixedKeepAlive(10LL * kMicrosPerSec, KaResourceBehavior::kFreezeDeallocate);
  EXPECT_DOUBLE_EQ(policy.KaCpuShare(1.0), 0.0);
}

// The resource behaviour decides the KA CPU share, whatever the window.
TEST(KeepAlive, FixedScaleDownKeepsOneHundredthOfAVcpu) {
  const KeepAlivePolicy policy =
      MakeFixedKeepAlive(600LL * kMicrosPerSec, KaResourceBehavior::kScaleDownCpu);
  EXPECT_NEAR(policy.KaCpuShare(0.5) * 0.5, 0.01, 1e-9);
}

// A fixed window draws nothing, and a uniform one draws one UniformInt over
// its bounds, so the engine's stream advances exactly as it always has.
TEST(KeepAlive, FixedWindowsDrawNothingUniformOnesDrawOnce) {
  Rng rng(8);
  Rng twin(8);
  MakeFixedKeepAlive(5LL * kMicrosPerSec, KaResourceBehavior::kRunAsUsual)
      .SampleDuration(rng, 1);
  MakeCloudflareKeepAlive().SampleDuration(rng, 1);
  EXPECT_EQ(rng.NextU64(), twin.NextU64());
  EXPECT_EQ(MakeAwsKeepAlive().SampleDuration(rng, 1),
            twin.UniformInt(300LL * kMicrosPerSec, 360LL * kMicrosPerSec));
  EXPECT_EQ(MakeAzureKeepAlive().SampleDuration(rng, 2),
            twin.UniformInt(120LL * kMicrosPerSec, 360LL * kMicrosPerSec));
  EXPECT_EQ(MakeAzureKeepAlive().SampleDuration(rng, 3),
            twin.UniformInt(360LL * kMicrosPerSec, 740LL * kMicrosPerSec));
  EXPECT_EQ(rng.NextU64(), twin.NextU64());
}

TEST(KeepAlive, BehaviorNamesDistinct) {
  std::set<std::string> names;
  for (auto b : {KaResourceBehavior::kFreezeDeallocate, KaResourceBehavior::kScaleDownCpu,
                 KaResourceBehavior::kRunAsUsual, KaResourceBehavior::kCodeCache}) {
    EXPECT_TRUE(names.insert(KaResourceBehaviorName(b)).second);
  }
}

// Paper Fig. 9 ordering: GCP keeps sandboxes alive the longest.
TEST(KeepAlive, GcpLongerThanAwsLongerThanAzureMinimum) {
  Rng rng(7);
  const KeepAlivePolicy aws = MakeAwsKeepAlive();
  const KeepAlivePolicy gcp = MakeGcpKeepAlive();
  const KeepAlivePolicy azure = MakeAzureKeepAlive();
  double aws_mean = 0.0;
  double gcp_mean = 0.0;
  double azure_mean = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    aws_mean += static_cast<double>(aws.SampleDuration(rng, 1));
    gcp_mean += static_cast<double>(gcp.SampleDuration(rng, 1));
    azure_mean += static_cast<double>(azure.SampleDuration(rng, 1));
  }
  EXPECT_GT(gcp_mean, aws_mean);
  EXPECT_GT(aws_mean, azure_mean);
}

}  // namespace
}  // namespace faascost
