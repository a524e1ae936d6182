// Tests for the multi-tenant host scheduling simulation (paper §4
// co-tenancy premise).

#include "src/sched/host_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

namespace faascost {
namespace {

constexpr MicroSecs kMs = kMicrosPerMilli;
constexpr MicroSecs kSec = kMicrosPerSec;

HostSimConfig OneCore() {
  HostSimConfig c;
  c.cores = 1;
  c.duration = 10 * kSec;
  return c;
}

TEST(HostSim, SingleTenantUnquotedGetsTheCore) {
  const HostSimResult r = SimulateHost(OneCore(), {{1.0, 1.0, 1.0}}, 1);
  EXPECT_NEAR(r.tenants[0].cpu_share, 1.0, 0.01);
  EXPECT_NEAR(r.host_utilization, 1.0, 0.01);
  EXPECT_TRUE(r.tenants[0].gaps.empty());
}

// Closed form for one always-runnable tenant alone on a host: each period it
// runs ceil(quota * period / tick) ticks, since the tick that spends its
// pool still runs to the end (0.333 of 100 ms runs 34 ms), but never more
// than the whole period; it then sits throttled until the next refill.
TEST(HostSim, QuotaEnforcedOnIdleHost) {
  for (const int cores : {1, 4}) {
    for (const double quota : {0.1, 0.3, 0.333, 0.5, 0.75, 1.0}) {
      HostSimConfig c;
      c.cores = cores;
      c.duration = 10 * c.period;
      const MicroSecs per_period = std::min<MicroSecs>(
          c.period, static_cast<MicroSecs>(std::ceil(quota * static_cast<double>(c.period) /
                                                     static_cast<double>(c.tick))) *
                        c.tick);
      const HostSimResult r = SimulateHost(c, {{quota, 1.0, 1.0}}, 2);
      const TenantResult& t = r.tenants[0];
      SCOPED_TRACE("quota " + std::to_string(quota) + ", cores " + std::to_string(cores));
      EXPECT_EQ(t.cpu_obtained, 10 * per_period);
      EXPECT_EQ(t.cpu_share, static_cast<double>(per_period) / static_cast<double>(c.period));
      EXPECT_EQ(t.runnable_time, c.duration);
      EXPECT_EQ(t.throttled_ticks, 10 * (c.period - per_period) / c.tick);
      EXPECT_EQ(t.preempted_ticks, 0);  // No one to lose the core to.
      // The last period's throttle never ends inside the run.
      const size_t gaps = per_period < c.period ? 9 : 0;
      ASSERT_EQ(t.gaps.size(), gaps);
      for (size_t k = 0; k < gaps; ++k) {
        EXPECT_EQ(t.gaps[k].start, static_cast<MicroSecs>(k) * c.period + per_period);
        EXPECT_EQ(t.gaps[k].duration, c.period - per_period);
      }
    }
  }
}

TEST(HostSim, EqualTenantsShareFairly) {
  const HostSimResult r =
      SimulateHost(OneCore(), {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}}, 3);
  EXPECT_NEAR(r.tenants[0].cpu_share, 0.5, 0.02);
  EXPECT_NEAR(r.tenants[1].cpu_share, 0.5, 0.02);
}

TEST(HostSim, WeightsSkewTheShares) {
  const HostSimResult r =
      SimulateHost(OneCore(), {{1.0, 2.0, 1.0}, {1.0, 1.0, 1.0}}, 4);
  EXPECT_NEAR(r.tenants[0].cpu_share, 2.0 / 3.0, 0.03);
  EXPECT_NEAR(r.tenants[1].cpu_share, 1.0 / 3.0, 0.03);
}

TEST(HostSim, CoresScaleThroughput) {
  HostSimConfig c = OneCore();
  c.cores = 4;
  std::vector<TenantSpec> tenants(4, {1.0, 1.0, 1.0});
  const HostSimResult r = SimulateHost(c, tenants, 5);
  for (const auto& t : r.tenants) {
    EXPECT_NEAR(t.cpu_share, 1.0, 0.01);  // One core each.
  }
}

TEST(HostSim, CoTenancyProducesShortPreemptionGaps) {
  // A quota-limited victim sharing one core with a bursty co-tenant sees
  // short waiting-for-core gaps in addition to its long throttle gaps --
  // the sub-2 ms gaps the paper reports on GCP.
  HostSimConfig c = OneCore();
  c.duration = 30 * kSec;
  const HostSimResult r = SimulateHost(
      c, {{0.5, 1.0, 1.0}, {1.0, 1.0, 0.5}}, 6);  // Victim + 50%-duty co-tenant.
  const auto& victim = r.tenants[0];
  EXPECT_GT(victim.preempted_ticks, 0);
  size_t short_gaps = 0;
  size_t long_gaps = 0;
  for (const auto& g : victim.gaps) {
    if (MicrosToMillis(g.duration) < 2.0) {
      ++short_gaps;
    }
    if (MicrosToMillis(g.duration) > 20.0) {
      ++long_gaps;
    }
  }
  EXPECT_GT(short_gaps, 0u);  // Preemptions.
  EXPECT_GT(long_gaps, 0u);   // Bandwidth throttles.
}

TEST(HostSim, OversubscriptionDegradesEveryone) {
  HostSimConfig c = OneCore();
  c.cores = 2;
  std::vector<TenantSpec> tenants(8, {1.0, 1.0, 1.0});  // 8 tasks, 2 cores.
  const HostSimResult r = SimulateHost(c, tenants, 7);
  double total = 0.0;
  for (const auto& t : r.tenants) {
    EXPECT_NEAR(t.cpu_share, 0.25, 0.03);  // 2 cores / 8 tenants.
    total += t.cpu_share;
  }
  EXPECT_NEAR(total, 2.0, 0.05);
  EXPECT_NEAR(r.host_utilization, 1.0, 0.01);
}

TEST(HostSim, DemandFractionLimitsUsage) {
  HostSimConfig c = OneCore();
  c.duration = 60 * kSec;
  const HostSimResult r = SimulateHost(c, {{1.0, 1.0, 0.3}}, 8);
  EXPECT_NEAR(r.tenants[0].cpu_share, 0.3, 0.06);
  EXPECT_NEAR(static_cast<double>(r.tenants[0].runnable_time) /
                  static_cast<double>(c.duration),
              0.3, 0.06);
}

TEST(HostSim, DeterministicForSeed) {
  const std::vector<TenantSpec> tenants = {{0.5, 1.0, 0.7}, {0.8, 1.0, 0.9}};
  const HostSimResult a = SimulateHost(OneCore(), tenants, 9);
  const HostSimResult b = SimulateHost(OneCore(), tenants, 9);
  EXPECT_EQ(a.tenants[0].cpu_obtained, b.tenants[0].cpu_obtained);
  EXPECT_EQ(a.tenants[1].gaps.size(), b.tenants[1].gaps.size());
}

TEST(HostSim, QuotaCapsEvenUnderFreeCores) {
  // Plenty of cores: quota, not contention, is the binding limit.
  HostSimConfig c = OneCore();
  c.cores = 8;
  const HostSimResult r =
      SimulateHost(c, {{0.25, 1.0, 1.0}, {0.6, 1.0, 1.0}}, 10);
  EXPECT_NEAR(r.tenants[0].cpu_share, 0.25, 0.02);
  EXPECT_NEAR(r.tenants[1].cpu_share, 0.6, 0.02);
}

}  // namespace
}  // namespace faascost
