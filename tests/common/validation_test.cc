// Release-mode input-validation regressions. The default build compiles with
// NDEBUG (RelWithDebInfo), so these contracts cannot live in assert(): each
// check below must hold in *every* build type. This is faaslint rule R4
// (assert-only validation of external input) applied to src/common by hand.

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/net/model.h"
#include "src/platform/presets.h"
#include "src/sched/config.h"
#include "src/sched/host_sim.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

TEST(ValidationTest, EmpiricalCdfQuantileRejectsOutOfRangeQ) {
  const EmpiricalCdf cdf({1.0, 2.0, 3.0});
  EXPECT_THROW(cdf.Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(cdf.Quantile(-0.5), std::invalid_argument);
  EXPECT_THROW(cdf.Quantile(1.5), std::invalid_argument);
  EXPECT_NO_THROW(cdf.Quantile(0.5));
  // Empty CDF keeps its documented 0.0 result, q unchecked.
  EXPECT_EQ(EmpiricalCdf({}).Quantile(9.0), 0.0);
}

TEST(ValidationTest, RngRejectsInvalidParameters) {
  Rng rng(7);
  EXPECT_THROW(rng.UniformInt(5, 4), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.Gamma(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.Gamma(1.0, -2.0), std::invalid_argument);
  EXPECT_THROW(ZipfTable(0, 1.1), std::invalid_argument);
  EXPECT_NO_THROW(rng.UniformInt(4, 4));
  EXPECT_NO_THROW(rng.Exponential(2.5));
  EXPECT_NO_THROW(rng.Gamma(0.5, 1.0));
}

TEST(ValidationTest, RngRejectionDoesNotConsumeEngineState) {
  // A rejected call must not advance the stream: determinism depends on the
  // draw sequence being exactly the configured one.
  Rng a(42);
  Rng b(42);
  EXPECT_THROW(a.UniformInt(9, 1), std::invalid_argument);
  EXPECT_THROW(a.Exponential(-1.0), std::invalid_argument);
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(ValidationTest, PercentileRejectsOutOfRangePct) {
  const std::vector<double> sorted{1.0, 2.0, 3.0};
  EXPECT_THROW(PercentileOfSorted(sorted, -1.0), std::invalid_argument);
  EXPECT_THROW(PercentileOfSorted(sorted, 100.5), std::invalid_argument);
  EXPECT_THROW(PercentileOfSorted(sorted, std::nan("")), std::invalid_argument);
  EXPECT_NO_THROW(PercentileOfSorted(sorted, 0.0));
  EXPECT_NO_THROW(PercentileOfSorted(sorted, 100.0));
  // Empty input keeps its documented 0.0 result.
  EXPECT_EQ(PercentileOfSorted({}, 250.0), 0.0);
}

TEST(ValidationTest, PearsonCorrelationRejectsLengthMismatch) {
  EXPECT_THROW(PearsonCorrelation({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_NO_THROW(PearsonCorrelation({1.0, 2.0}, {2.0, 4.0}));
}

TEST(ValidationTest, SchedConfigRejectsBadParameters) {
  EXPECT_THROW(MakeSchedConfig(0, 0.5, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(-20, 0.5, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(20000, 0.0, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(20000, -0.1, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(20000, 0.5, 0), std::invalid_argument);
  EXPECT_NO_THROW(MakeSchedConfig(20000, 0.5, 250));
}

TEST(ValidationTest, BucketEconomicsRejectsNonPositiveBucketCount) {
  const FleetResult result;
  const std::vector<RequestRecord> trace;
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetSimConfig config;
  EXPECT_THROW(BucketEconomics(result, trace, billing, config, 0),
               std::invalid_argument);
  EXPECT_THROW(BucketEconomics(result, trace, billing, config, -3),
               std::invalid_argument);
  EXPECT_NO_THROW(BucketEconomics(result, trace, billing, config, 4));
}

// Release builds compiled out the host sim's asserts: a host with no cores,
// a period the tick does not divide, an empty run or a NaN quota ran anyway.
TEST(ValidationTest, SimulateHostRejectsInvalidHosts) {
  const std::vector<TenantSpec> tenants(2);
  HostSimConfig base;
  base.duration = 100 * kMicrosPerMilli;
  HostSimConfig no_cores = base;
  no_cores.cores = 0;
  HostSimConfig ragged_period = base;
  ragged_period.period = 1'500;
  HostSimConfig empty_run = base;
  empty_run.duration = 0;
  for (const HostSimConfig& config : {no_cores, ragged_period, empty_run}) {
    EXPECT_THROW(SimulateHost(config, tenants, 1), std::invalid_argument);
  }
  std::vector<TenantSpec> nan_quota = tenants;
  nan_quota[1].quota_fraction = std::nan("");
  EXPECT_THROW(SimulateHost(base, nan_quota, 1), std::invalid_argument);
  EXPECT_NO_THROW(SimulateHost(base, tenants, 1));
}

TEST(ValidationTest, HostSimConfigChecksEveryTenantField) {
  const HostSimConfig config;
  const std::vector<TenantSpec> base(2);
  ASSERT_TRUE(config.Validate(base).empty());
  // A phase past ~32 years would overflow the int64 cast of its draws.
  for (const MicroSecs phase : {MicroSecs{0}, MicroSecs{1'000'000'000'000'000'000}}) {
    HostSimConfig bad_phase = config;
    bad_phase.demand_phase = phase;
    EXPECT_FALSE(bad_phase.Validate(base).empty()) << phase;
  }
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [field, value] :
       std::vector<std::pair<double TenantSpec::*, double>>{
           {&TenantSpec::quota_fraction, -0.1}, {&TenantSpec::quota_fraction, nan},
           {&TenantSpec::quota_fraction, inf},  {&TenantSpec::quota_fraction, 1e300},
           {&TenantSpec::weight, 0.0},          {&TenantSpec::weight, nan},
           {&TenantSpec::weight, inf},          {&TenantSpec::demand_fraction, 1.5},
           {&TenantSpec::demand_fraction, -0.1}, {&TenantSpec::demand_fraction, nan}}) {
    std::vector<TenantSpec> tenants = base;
    tenants[1].*field = value;
    EXPECT_FALSE(config.Validate(tenants).empty()) << value;
  }
  // A quota above one core stays legal: the tenant is never throttled.
  std::vector<TenantSpec> unthrottled = base;
  unthrottled[0].quota_fraction = 2.0;
  EXPECT_TRUE(config.Validate(unthrottled).empty());
}

// The config validators below write range checks as `x < lo || x > hi`,
// which NaN passes; each NaN field must still be an error.

TEST(ValidationTest, PlatformSimConfigRejectsNan) {
  const PlatformSimConfig base = AwsLambdaPlatform(1.0, 1769.0);
  ASSERT_TRUE(base.Validate().empty());
  for (double PlatformSimConfig::*field :
       {&PlatformSimConfig::init_jitter, &PlatformSimConfig::contention_coeff,
        &PlatformSimConfig::contention_excess_cap}) {
    PlatformSimConfig config = base;
    config.*field = std::nan("");
    EXPECT_FALSE(config.Validate().empty());
  }
}

TEST(ValidationTest, WorkflowSimConfigRejectsNan) {
  WorkflowSimConfig base;
  base.workflows = 10;
  base.dags.push_back(MakeChainDag("chain", 3, HopSpec{}));
  ASSERT_TRUE(base.Validate().empty());
  for (double WorkflowSimConfig::*field :
       {&WorkflowSimConfig::init_jitter, &WorkflowSimConfig::failure_rate,
        &WorkflowSimConfig::init_failure_rate}) {
    WorkflowSimConfig config = base;
    config.*field = std::nan("");
    EXPECT_FALSE(config.Validate().empty());
  }
  for (Usd WorkflowPricing::*fee :
       {&WorkflowPricing::per_state_transition, &WorkflowPricing::dlq_write_fee,
        &WorkflowPricing::dlq_read_fee}) {
    WorkflowSimConfig config = base;
    config.pricing.*fee = std::nan("");
    EXPECT_FALSE(config.Validate().empty());
  }
}

TEST(ValidationTest, WorkflowDagRejectsNanHopFields) {
  const WorkflowDag base = MakeChainDag("chain", 3, HopSpec{});
  ASSERT_TRUE(base.Validate().empty());
  // A NaN failure_rate must not read as "inherit the global rate".
  for (double HopSpec::*field : {&HopSpec::exec_cv, &HopSpec::cpu_fraction, &HopSpec::vcpus,
                                 &HopSpec::mem_mb, &HopSpec::failure_rate}) {
    WorkflowDag dag = base;
    dag.hops[1].*field = std::nan("");
    EXPECT_FALSE(dag.Validate().empty());
  }
}

TEST(ValidationTest, NetworkModelConfigRejectsNanPayloads) {
  const NetworkModelConfig base;
  ASSERT_TRUE(base.Validate().empty());
  for (double PayloadModelParams::*field :
       {&PayloadModelParams::request_mean_kb, &PayloadModelParams::request_sigma,
        &PayloadModelParams::response_mean_kb, &PayloadModelParams::response_sigma}) {
    NetworkModelConfig config = base;
    config.payload.*field = std::nan("");
    EXPECT_FALSE(config.Validate().empty());
  }
}

// Engines turn Validate() errors into one single-line exception, so the CLI
// prints a config error as one stderr line.
TEST(ValidationTest, ConfigErrorsThrowAsOneLine) {
  const auto message = [](const auto& call) {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  WorkflowSimConfig workflows;
  workflows.workflows = -1;
  workflows.wps = 0.0;
  const std::string wf = message([&] {
    SimulateWorkflows(workflows, MakeBillingModel(Platform::kAwsLambda), 1);
  });
  EXPECT_EQ(wf, "invalid WorkflowSimConfig: workflows must be non-negative; wps must be positive");

  // zones_per_region 0 also checks the topology is validated before it is
  // built (its region count divides by zones_per_region).
  NetworkModelConfig net;
  net.topology.zones_per_region = 0;
  net.class_a_ops_per_request = -1;
  const std::string nm = message([&] { NetworkModel model(net, NetworkPricing{}, 1); });
  EXPECT_EQ(nm.find('\n'), std::string::npos) << nm;
  EXPECT_NE(nm.find("zones_per_region must be >= 1; "), std::string::npos) << nm;
}

}  // namespace
}  // namespace faascost
