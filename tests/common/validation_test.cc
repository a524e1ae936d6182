// Release-mode input-validation regressions. The default build compiles with
// NDEBUG (RelWithDebInfo), so these contracts cannot live in assert(): each
// check below must hold in *every* build type. This is faaslint rule R4
// (assert-only validation of external input) applied to src/common by hand.

#include <cmath>
#include <functional>
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
#include "src/obs/slo.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/sched/config.h"
#include "src/sched/host_sim.h"
#include "src/trace/generator.h"
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
  // 2 MHz ticks round to 0 us, and CpuBandwidthSim::Run never returns.
  EXPECT_THROW(MakeSchedConfig(20000, 0.5, 2'000'000), std::invalid_argument);
  // A quota past int64 overflowed its cast.
  EXPECT_THROW(MakeSchedConfig(20000, 1e300, 250), std::invalid_argument);
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

// Validate() errors of a copy of `config` whose `field`, in the struct that
// `at` selects, is NaN.
template <typename Config, typename At, typename Part>
std::vector<std::string> WithNan(Config config, At at, double Part::*field) {
  at(config).*field = std::nan("");
  return config.Validate();
}

// Validate() errors of a copy of `config` whose `field`, in the struct that
// `at` selects, is `us`.
template <typename Config, typename At, typename Part>
std::vector<std::string> WithDuration(Config config, At at, MicroSecs Part::*field,
                                      MicroSecs us) {
  at(config).*field = us;
  return config.Validate();
}

// HostSimConfig validates against its tenants.
struct HostCase {
  HostSimConfig config;
  std::vector<TenantSpec> tenants = std::vector<TenantSpec>(2);
  std::vector<std::string> Validate() const { return config.Validate(tenants); }
};

// A range check written `x < lo || x > hi` passes NaN, which then prints a
// plausible wrong bill. Every real-valued field of every validated config
// must instead give an error that names it.
TEST(ValidationTest, EveryRealConfigFieldRejectsNan) {
  const PlatformSimConfig platform = AwsLambdaPlatform(1.0, 1769.0);
  const FleetSimConfig fleet;
  const HostCase host;
  const SloSpec slo;
  const TieredSchedule ladder = TieredSchedule::Flat(0.09);
  const NetworkPricing pricing = MakeNetworkPricing(Platform::kAwsLambda);
  const CloudTopologyParams topology;
  const NetworkModelConfig net;
  const WorkflowDag dag = MakeChainDag("chain", 3, HopSpec{});
  WorkflowSimConfig workflow;
  workflow.workflows = 10;
  workflow.dags.push_back(dag);
  const TraceGenConfig trace;
  ASSERT_TRUE(platform.Validate().empty());
  ASSERT_TRUE(fleet.Validate().empty());
  ASSERT_TRUE(host.Validate().empty());
  ASSERT_TRUE(slo.Validate().empty());
  ASSERT_TRUE(ladder.Validate().empty());
  ASSERT_TRUE(pricing.Validate().empty());
  ASSERT_TRUE(topology.Validate().empty());
  ASSERT_TRUE(net.Validate().empty());
  ASSERT_TRUE(dag.Validate().empty());
  ASSERT_TRUE(workflow.Validate().empty());
  ASSERT_TRUE(trace.Validate().empty());

  const auto self = [](auto& c) -> auto& { return c; };
  const auto faults = [](auto& c) -> auto& { return c.faults; };
  const auto retry = [](auto& c) -> auto& { return c.retry; };
  const auto autoscaler = [](auto& c) -> auto& { return c.autoscaler; };
  const auto server = [](auto& c) -> auto& { return c.server; };
  const auto host_faults = [](auto& c) -> auto& { return c.host_faults; };
  const auto tenant = [](HostCase& c) -> auto& { return c.tenants[1]; };
  const auto tier = [](TieredSchedule& s) -> auto& { return s.tiers[0]; };
  const auto payload = [](auto& c) -> auto& { return c.payload; };
  const auto hop = [](WorkflowDag& d) -> auto& { return d.hops[1]; };
  const auto fees = [](auto& c) -> auto& { return c.pricing; };
  const auto policy_retry = [](auto& c) -> auto& { return c.policy.retry; };
  const auto cpu_util = [](auto& c) -> auto& { return c.cpu_util; };
  const auto mem_util = [](auto& c) -> auto& { return c.mem_util; };
  const auto combo = [](TraceGenConfig& c) -> auto& { return c.combos[1]; };
  // A pre-warm config reaches Validate() through the keep-alive policy.
  const auto prewarm_nan = [](double HistogramPrewarmConfig::*field) {
    HistogramPrewarmConfig prewarm;
    prewarm.*field = std::nan("");
    PlatformSimConfig config = AzurePlatform();
    config.keepalive = MakeHistogramPrewarm(prewarm);
    return config.Validate();
  };
  // (the field name the error must carry, the errors)
  const std::vector<std::pair<std::string, std::vector<std::string>>> rows = {
      {"vcpus", WithNan(platform, self, &PlatformSimConfig::vcpus)},
      {"mem_mb", WithNan(platform, self, &PlatformSimConfig::mem_mb)},
      {"init_jitter", WithNan(platform, self, &PlatformSimConfig::init_jitter)},
      {"contention_coeff", WithNan(platform, self, &PlatformSimConfig::contention_coeff)},
      {"contention_excess_cap",
       WithNan(platform, self, &PlatformSimConfig::contention_excess_cap)},
      {"coverage_quantile", prewarm_nan(&HistogramPrewarmConfig::coverage_quantile)},
      {"margin", prewarm_nan(&HistogramPrewarmConfig::margin)},
      {"init_failure_prob", WithNan(platform, faults, &FaultModelConfig::init_failure_prob)},
      {"crash_prob", WithNan(platform, faults, &FaultModelConfig::crash_prob)},
      {"backoff_multiplier", WithNan(platform, retry, &RetryPolicy::backoff_multiplier)},
      // per_instance_capacity is not input: the engine derives it.
      {"target_utilization",
       WithNan(platform, autoscaler, &AutoscalerConfig::target_utilization)},
      {"ka_cost_share", WithNan(fleet, self, &FleetSimConfig::ka_cost_share)},
      {"hardware_per_vcpu_second",
       WithNan(fleet, self, &FleetSimConfig::hardware_per_vcpu_second)},
      {"hardware_per_gb_second", WithNan(fleet, self, &FleetSimConfig::hardware_per_gb_second)},
      {"failure_rate", WithNan(fleet, self, &FleetSimConfig::failure_rate)},
      {"server.vcpus", WithNan(fleet, server, &ServerSpec::vcpus)},
      {"server.mem_mb", WithNan(fleet, server, &ServerSpec::mem_mb)},
      {"backoff_multiplier", WithNan(fleet, retry, &RetryPolicy::backoff_multiplier)},
      {"mtbf_seconds", WithNan(fleet, host_faults, &HostFaultModelConfig::mtbf_seconds)},
      {"mttr_seconds", WithNan(fleet, host_faults, &HostFaultModelConfig::mttr_seconds)},
      {"zone_outage_mtbf_seconds",
       WithNan(fleet, host_faults, &HostFaultModelConfig::zone_outage_mtbf_seconds)},
      {"graceful_fraction",
       WithNan(fleet, host_faults, &HostFaultModelConfig::graceful_fraction)},
      {"quota_fraction", WithNan(host, tenant, &TenantSpec::quota_fraction)},
      {"weight", WithNan(host, tenant, &TenantSpec::weight)},
      {"demand_fraction", WithNan(host, tenant, &TenantSpec::demand_fraction)},
      {"target", WithNan(slo, self, &SloSpec::target)},
      {"fast_burn", WithNan(slo, self, &SloSpec::fast_burn)},
      {"slow_burn", WithNan(slo, self, &SloSpec::slow_burn)},
      {"usd_per_gb", WithNan(ladder, tier, &PriceTier::usd_per_gb)},
      {"class_a_per_op", WithNan(pricing, self, &NetworkPricing::class_a_per_op)},
      {"class_b_per_op", WithNan(pricing, self, &NetworkPricing::class_b_per_op)},
      {"intra_zone_gbps", WithNan(topology, self, &CloudTopologyParams::intra_zone_gbps)},
      {"inter_zone_gbps", WithNan(topology, self, &CloudTopologyParams::inter_zone_gbps)},
      {"inter_region_gbps", WithNan(topology, self, &CloudTopologyParams::inter_region_gbps)},
      {"uplink_gbps", WithNan(topology, self, &CloudTopologyParams::uplink_gbps)},
      {"backup_uplink_gbps", WithNan(topology, self, &CloudTopologyParams::backup_uplink_gbps)},
      {"request_mean_kb", WithNan(net, payload, &PayloadModelParams::request_mean_kb)},
      {"request_sigma", WithNan(net, payload, &PayloadModelParams::request_sigma)},
      {"response_mean_kb", WithNan(net, payload, &PayloadModelParams::response_mean_kb)},
      {"response_sigma", WithNan(net, payload, &PayloadModelParams::response_sigma)},
      {"exec_cv", WithNan(dag, hop, &HopSpec::exec_cv)},
      {"cpu_fraction", WithNan(dag, hop, &HopSpec::cpu_fraction)},
      {"vcpus", WithNan(dag, hop, &HopSpec::vcpus)},
      {"mem_mb", WithNan(dag, hop, &HopSpec::mem_mb)},
      // A NaN failure_rate must not read as "inherit the engine-wide rate".
      {"failure_rate", WithNan(dag, hop, &HopSpec::failure_rate)},
      {"wps", WithNan(workflow, self, &WorkflowSimConfig::wps)},
      {"init_jitter", WithNan(workflow, self, &WorkflowSimConfig::init_jitter)},
      {"failure_rate", WithNan(workflow, self, &WorkflowSimConfig::failure_rate)},
      {"init_failure_rate", WithNan(workflow, self, &WorkflowSimConfig::init_failure_rate)},
      {"per_state_transition", WithNan(workflow, fees, &WorkflowPricing::per_state_transition)},
      {"dlq_write_fee", WithNan(workflow, fees, &WorkflowPricing::dlq_write_fee)},
      {"dlq_read_fee", WithNan(workflow, fees, &WorkflowPricing::dlq_read_fee)},
      {"backoff_multiplier", WithNan(workflow, policy_retry, &RetryPolicy::backoff_multiplier)},
      {"zipf_exponent", WithNan(trace, self, &TraceGenConfig::zipf_exponent)},
      {"exec_ln_sigma_function", WithNan(trace, self, &TraceGenConfig::exec_ln_sigma_function)},
      {"exec_ln_sigma_request", WithNan(trace, self, &TraceGenConfig::exec_ln_sigma_request)},
      {"exec_mean_ms", WithNan(trace, self, &TraceGenConfig::exec_mean_ms)},
      {"exec_alloc_exponent", WithNan(trace, self, &TraceGenConfig::exec_alloc_exponent)},
      {"cpu_util.a", WithNan(trace, cpu_util, &KumaraswamyParams::a)},
      {"cpu_util.b", WithNan(trace, cpu_util, &KumaraswamyParams::b)},
      {"mem_util.a", WithNan(trace, mem_util, &KumaraswamyParams::a)},
      {"mem_util.b", WithNan(trace, mem_util, &KumaraswamyParams::b)},
      {"util_copula_rho", WithNan(trace, self, &TraceGenConfig::util_copula_rho)},
      {"cold_start_fraction", WithNan(trace, self, &TraceGenConfig::cold_start_fraction)},
      {"init_ln_mu", WithNan(trace, self, &TraceGenConfig::init_ln_mu)},
      {"init_ln_sigma", WithNan(trace, self, &TraceGenConfig::init_ln_sigma)},
      {"combos[1].vcpus", WithNan(trace, combo, &AllocCombo::vcpus)},
      {"combos[1].mem_mb", WithNan(trace, combo, &AllocCombo::mem_mb)},
      {"combos[1].weight", WithNan(trace, combo, &AllocCombo::weight)},
      {"lifecycle_ln_mu", WithNan(trace, self, &TraceGenConfig::lifecycle_ln_mu)},
      {"lifecycle_ln_sigma", WithNan(trace, self, &TraceGenConfig::lifecycle_ln_sigma)},
      {"failure_rate_mean", WithNan(trace, self, &TraceGenConfig::failure_rate_mean)},
      {"failure_rate_alpha", WithNan(trace, self, &TraceGenConfig::failure_rate_alpha)},
      {"payload_request_mean_kb",
       WithNan(trace, self, &TraceGenConfig::payload_request_mean_kb)},
      {"payload_request_ln_sigma",
       WithNan(trace, self, &TraceGenConfig::payload_request_ln_sigma)},
      {"payload_response_mean_kb",
       WithNan(trace, self, &TraceGenConfig::payload_response_mean_kb)},
      {"payload_response_ln_sigma",
       WithNan(trace, self, &TraceGenConfig::payload_response_ln_sigma)},
  };
  for (const auto& [field, errors] : rows) {
    ASSERT_FALSE(errors.empty()) << field;
    EXPECT_NE(errors.front().find(field), std::string::npos) << field << ": " << errors.front();
  }
}

// A window ending past int64 overflowed `start + duration` in both engines'
// coverage tests.
TEST(ValidationTest, OutageWindowMustEndInsideInt64) {
  const NetOutage near_max{0, std::numeric_limits<MicroSecs>::max() - 5, 100};
  EXPECT_FALSE(near_max.Validate().empty());
  NetworkModelConfig net;
  net.outages.push_back(near_max);
  EXPECT_FALSE(net.Validate().empty());
  WorkflowSimConfig workflow;
  workflow.outages.push_back(near_max);
  EXPECT_FALSE(workflow.Validate().empty());
  EXPECT_TRUE(NetOutage({0, std::numeric_limits<MicroSecs>::max() - 100, 100}).Validate().empty());
}

// Every duration an engine adds to its clock stays under the ceiling. A
// keep-alive past it overflowed the fleet's retirement time (`free_at +
// keepalive`) and made the workflow engine's expiry test wrap, so every warm
// sandbox read as expired; an execution limit of INT64_MAX - 10 overflowed
// PlatformSim's timeout event (`now + max_exec_duration`), a backoff cap of
// INT64_MAX let a second retry overflow the fleet's `client_end + delay`, and
// a hop's exec_mean of INT64_MAX - 1000 at exec_cv = 0 (executed undrawn)
// overflowed the workflow engine's `now_ + init_run + cut`. The ceiling
// itself is valid.
TEST(ValidationTest, KeepAliveAndInitDurationsStayUnderTheCeiling) {
  constexpr MicroSecs kMax = std::numeric_limits<MicroSecs>::max();
  const FleetSimConfig fleet;
  const WorkflowSimConfig workflow;
  const WorkflowDag chain = MakeChainDag("chain", 1, HopSpec{});
  const PlatformSimConfig platform = AwsLambdaPlatform(1.0, 1769.0);
  PlatformSimConfig breaker = platform;
  breaker.retry.breaker_threshold = 3;  // The cooldown is checked only when enabled.
  // The backoff base may not pass the cap, so its row sets the cap at the
  // ceiling.
  PlatformSimConfig wide_backoff = platform;
  wide_backoff.retry.backoff_cap = kMaxDuration;
  const auto self = [](auto& c) -> auto& { return c; };
  const auto host_faults = [](auto& c) -> auto& { return c.host_faults; };
  const auto deadline = [](auto& c) -> auto& { return c.policy.deadline; };
  const auto hedge = [](auto& c) -> auto& { return c.policy.hedge; };
  const auto redrive = [](auto& c) -> auto& { return c.policy.redrive; };
  const auto faults = [](auto& c) -> auto& { return c.faults; };
  const auto retry = [](auto& c) -> auto& { return c.retry; };
  const auto admission = [](auto& c) -> auto& { return c.admission; };
  const auto autoscaler = [](auto& c) -> auto& { return c.autoscaler; };
  const auto first_hop = [](WorkflowDag& d) -> auto& { return d.hops[0]; };
  using Errors = std::function<std::vector<std::string>(MicroSecs)>;
  const auto row = [](const auto& config, auto at, auto field) -> Errors {
    return [=](MicroSecs us) { return WithDuration(config, at, field, us); };
  };
  // (the field name the error must carry, the errors at a given value)
  const std::vector<std::pair<std::string, Errors>> rows = {
      {"keepalive", row(fleet, self, &FleetSimConfig::keepalive)},
      {"init_duration", row(fleet, self, &FleetSimConfig::init_duration)},
      {"host_faults: drain_deadline",
       row(fleet, host_faults, &HostFaultModelConfig::drain_deadline)},
      {"keepalive", row(workflow, self, &WorkflowSimConfig::keepalive)},
      {"init_mean", row(workflow, self, &WorkflowSimConfig::init_mean)},
      {"deadline.deadline", row(workflow, deadline, &DeadlineBudgetPolicy::deadline)},
      {"hedge.hedge_after", row(workflow, hedge, &HedgePolicy::hedge_after)},
      {"hedge.cancel_latency", row(workflow, hedge, &HedgePolicy::cancel_latency)},
      {"redrive.redrive_delay", row(workflow, redrive, &AsyncRedrivePolicy::redrive_delay)},
      {"exec_mean", row(chain, first_hop, &HopSpec::exec_mean)},
      {"faults: max_exec_duration",
       row(platform, faults, &FaultModelConfig::max_exec_duration)},
      {"retry: attempt_timeout", row(platform, retry, &RetryPolicy::attempt_timeout)},
      {"retry: breaker_cooldown", row(breaker, retry, &RetryPolicy::breaker_cooldown)},
      {"retry: backoff_cap", row(platform, retry, &RetryPolicy::backoff_cap)},
      {"retry: backoff_base", row(wide_backoff, retry, &RetryPolicy::backoff_base)},
      {"admission: queue_timeout",
       row(platform, admission, &AdmissionControlConfig::queue_timeout)},
      {"drain_deadline", row(platform, self, &PlatformSimConfig::drain_deadline)},
      {"autoscaler.sample_interval",
       row(platform, autoscaler, &AutoscalerConfig::sample_interval)},
      {"autoscaler.eval_interval", row(platform, autoscaler, &AutoscalerConfig::eval_interval)},
  };
  for (const auto& [field, errors] : rows) {
    EXPECT_TRUE(errors(kMaxDuration).empty()) << field;
    const std::vector<std::string> refused = errors(kMax);
    EXPECT_EQ(refused.size(), 1U) << field;
    EXPECT_NE(refused.empty() ? std::string::npos : refused.front().find(field),
              std::string::npos)
        << field;
  }
}

// Every retry's delay stays under the duration ceiling, but a chain of them
// did not: one fleet record failing every attempt, with a century-long
// backoff and 5,000 attempts allowed, ran `client_end + delay` past
// INT64_MAX after ~2,900 retries. At kMaxRetryAttempts both engines run that
// chain to its end; one attempt more is refused, with one error naming the
// field.
TEST(ValidationTest, RetryChainsAtTheAttemptCeilingStayInsideTheClock) {
  RetryPolicy retry;
  retry.max_attempts = kMaxRetryAttempts;
  retry.backoff_base = kMaxDuration;
  retry.backoff_cap = kMaxDuration;
  retry.full_jitter = false;

  FleetSimConfig fleet;
  fleet.failure_rate = 1.0;
  fleet.retry = retry;
  RequestRecord record;
  record.function_id = 1;
  record.exec_duration = 100 * kMicrosPerMilli;
  record.cpu_time = 50 * kMicrosPerMilli;
  record.alloc_vcpus = 1.0;
  record.alloc_mem_mb = 2'048.0;
  record.used_mem_mb = 500.0;
  const FleetResult fleet_run =
      SimulateFleet({record}, MakeBillingModel(Platform::kAwsLambda), fleet);
  EXPECT_EQ(fleet_run.attempts, kMaxRetryAttempts);
  EXPECT_EQ(fleet_run.retries_exhausted, 1);
  EXPECT_GT(fleet_run.e2e_latency.front(), (kMaxRetryAttempts - 1) * kMaxDuration);

  PlatformSimConfig platform = AwsLambdaPlatform(1.0, 1769.0);
  platform.faults.crash_prob = 1.0;
  platform.retry = retry;
  // Samples and scaling rounds re-arm until the run ends: once a century,
  // not once a second, over a chain of centuries.
  platform.autoscaler.sample_interval = kMaxDuration;
  platform.autoscaler.eval_interval = kMaxDuration;
  ASSERT_TRUE(platform.Validate().empty());
  const PlatformSimResult platform_run = PlatformSim(platform, 1).Run({0}, PyAesWorkload());
  EXPECT_EQ(platform_run.attempts.size(), static_cast<size_t>(kMaxRetryAttempts));
  EXPECT_EQ(platform_run.successes, 0);

  for (std::vector<std::string> errors :
       {fleet.Validate(), platform.Validate(), retry.Validate()}) {
    EXPECT_TRUE(errors.empty());
  }
  fleet.retry.max_attempts = kMaxRetryAttempts + 1;
  platform.retry.max_attempts = kMaxRetryAttempts + 1;
  retry.max_attempts = kMaxRetryAttempts + 1;
  for (std::vector<std::string> errors :
       {fleet.Validate(), platform.Validate(), retry.Validate()}) {
    EXPECT_EQ(errors.size(), 1U);
    EXPECT_NE(errors.empty() ? std::string::npos : errors.front().find("max_attempts"),
              std::string::npos);
  }
}

// Workflow arrivals are uniform, instance i at i / wps seconds. At wps =
// 1e-14, instances 1 and 2 of three arrived at llround(1e20) and
// llround(2e20) us, out of llround's range, and read INT64_MIN; a last
// arrival just under INT64_MAX overflowed `now_ + init_run`. The last
// arrival may sit at the ceiling, not past it, with one error naming wps.
// Near the ceiling a run stays inside the clock: the second instance
// arrives ~68 years in and executes for a century.
TEST(ValidationTest, WorkflowArrivalsStayUnderTheCeiling) {
  WorkflowSimConfig workflow;
  workflow.dags.push_back(MakeChainDag("chain", 1, HopSpec{}));
  workflow.wps = 1.0;
  workflow.workflows = kMaxDuration / kMicrosPerSec + 1;
  EXPECT_TRUE(workflow.Validate().empty());
  const std::pair<int64_t, double> past[] = {{kMaxDuration / kMicrosPerSec + 2, 1.0},
                                             {3, 1e-14}};
  for (const auto& [workflows, wps] : past) {
    WorkflowSimConfig refused = workflow;
    refused.workflows = workflows;
    refused.wps = wps;
    const std::vector<std::string> errors = refused.Validate();
    ASSERT_EQ(errors.size(), 1U) << workflows;
    EXPECT_NE(errors.front().find("wps"), std::string::npos) << errors.front();
  }

  HopSpec century;
  century.exec_mean = kMaxDuration;
  century.exec_cv = 0.0;
  WorkflowSimConfig far;
  far.dags.push_back(MakeChainDag("chain", 1, century));
  far.workflows = 2;
  far.wps = std::ldexp(1.0, -31);  // Exact: the second arrival is 2^31 s in.
  ASSERT_TRUE(far.Validate().empty());
  const WorkflowSimResult run =
      SimulateWorkflows(far, MakeBillingModel(Platform::kAwsLambda), 1);
  EXPECT_EQ(run.counters.workflows_succeeded, 2);
  EXPECT_GT(run.makespan, (int64_t{1} << 31) * kMicrosPerSec + kMaxDuration);
}

// The workflow policy's per-hop bound multiplied max_attempts by the two
// copies hedging makes in int, which overflowed at INT_MAX before any
// error could be returned.
TEST(ValidationTest, WorkflowPerHopBoundSurvivesAnyAttemptCount) {
  WorkflowSimConfig workflow;
  workflow.policy.retry.max_attempts = std::numeric_limits<int>::max();
  workflow.policy.hedge.hedge_after = kMicrosPerSec;
  const std::vector<std::string> errors = workflow.Validate();
  ASSERT_EQ(errors.size(), 2U);
  EXPECT_NE(errors[0].find("max_attempts"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("attempts per hop"), std::string::npos) << errors[1];
}

// PlatformSimConfig::Validate() used to check no keep-alive policy: a zero
// bin width divided by zero mid-run (SIGFPE), a fallback_max below
// fallback_min threw from Rng::UniformInt mid-run, and a negative fixed
// window scheduled events at negative times. One-microsecond bins asked for
// 7.2e9 histogram counts.
TEST(ValidationTest, KeepAlivePoliciesAreValidated) {
  const auto prewarm = [](auto edit) {
    HistogramPrewarmConfig p;
    edit(p);
    PlatformSimConfig config = AzurePlatform();
    config.keepalive = MakeHistogramPrewarm(p);
    return config;
  };
  const auto fixed = [](MicroSecs window) {
    PlatformSimConfig config = AwsLambdaPlatform(1.0, 1769.0);
    config.keepalive = MakeFixedKeepAlive(window, KaResourceBehavior::kFreezeDeallocate);
    return config;
  };
  // (the field the error must name, the config)
  const std::vector<std::pair<std::string, PlatformSimConfig>> rows = {
      {"prewarm.bin_width", prewarm([](auto& p) { p.bin_width = 0; })},
      {"prewarm histogram size", prewarm([](auto& p) { p.bin_width = 1; })},
      {"prewarm.fallback_max", prewarm([](auto& p) {
         p.fallback_min = 360 * kMicrosPerSec;
         p.fallback_max = 120 * kMicrosPerSec;
       })},
      {"prewarm.fallback_min", prewarm([](auto& p) { p.fallback_min = -1; })},
      {"prewarm.max_tracked", prewarm([](auto& p) { p.max_tracked = -1; })},
      {"prewarm.min_observations", prewarm([](auto& p) { p.min_observations = -1; })},
      {"prewarm.coverage_quantile", prewarm([](auto& p) { p.coverage_quantile = 1.5; })},
      {"prewarm.margin", prewarm([](auto& p) { p.margin = 0.0; })},
      {"prewarm.margin",
       prewarm([](auto& p) { p.margin = std::numeric_limits<double>::infinity(); })},
      {"prewarm.max_keepalive", prewarm([](auto& p) { p.max_keepalive = -1; })},
      {"window.min", fixed(-5 * kMicrosPerSec)},
      {"window.min", fixed(kMaxDuration + 1)},
  };
  for (const auto& [field, config] : rows) {
    const std::vector<std::string> errors = config.Validate();
    EXPECT_EQ(errors.size(), 1U) << field;
    EXPECT_NE(errors.empty() ? std::string::npos : errors.front().find("keepalive: " + field),
              std::string::npos)
        << field;
    EXPECT_THROW(PlatformSim(config, 4), std::invalid_argument) << field;
  }
  // No preset's policy is refused, nor the bounds themselves.
  for (const PlatformSimConfig& config :
       {AwsLambdaPlatform(1.0, 1769.0), GcpPlatform(1.0, 1024.0), AzurePlatform(),
        CloudflarePlatform(), IbmPlatform(1.0, 1024.0), prewarm([](auto&) {}), fixed(0),
        fixed(kMaxDuration)}) {
    EXPECT_TRUE(config.Validate().empty()) << config.keepalive->prewarm().has_value();
  }
}

// Each setting was accepted and then ignored: neither the fleet nor the
// workflow engine models a client timeout, and neither rejects an attempt,
// so whether it would retry a 429 means nothing.
TEST(ValidationTest, EnginesRefuseClientSettingsTheyDoNotModel) {
  FleetSimConfig fleet_timeout;
  fleet_timeout.retry.attempt_timeout = 1;
  FleetSimConfig fleet_no_429_retry;
  fleet_no_429_retry.retry.retry_rejected = false;
  WorkflowSimConfig workflow_timeout;
  workflow_timeout.policy.retry.attempt_timeout = 1;
  WorkflowSimConfig workflow_no_429_retry;
  workflow_no_429_retry.policy.retry.retry_rejected = false;
  // (the setting the error must name, the errors)
  const std::vector<std::pair<std::string, std::vector<std::string>>> rows = {
      {"attempt_timeout", fleet_timeout.Validate()},
      {"retry_rejected", fleet_no_429_retry.Validate()},
      {"attempt_timeout", workflow_timeout.Validate()},
      {"retry_rejected", workflow_no_429_retry.Validate()},
  };
  for (const auto& [setting, errors] : rows) {
    EXPECT_EQ(errors.size(), 1U) << setting;
    EXPECT_NE(errors.empty() ? std::string::npos : errors.front().find(setting),
              std::string::npos)
        << setting;
  }
}

// kSample re-arms every sample_interval, enabled autoscaler or not: at 0 a
// run never ends.
TEST(ValidationTest, PlatformSimConfigRejectsZeroSampleInterval) {
  PlatformSimConfig config = GcpPlatform(1.0, 1'024.0);
  ASSERT_TRUE(config.Validate().empty());
  config.autoscaler.sample_interval = 0;
  EXPECT_FALSE(config.Validate().empty());
  EXPECT_THROW(PlatformEngine(config, 1), std::invalid_argument);
}

// Release builds compiled out each of these asserts on caller input.
TEST(ValidationTest, PlatformEngineRejectsUnsortedOrNegativeArrivals) {
  const PlatformSimConfig config = AwsLambdaPlatform(1.0, 1769.0);
  for (const std::vector<MicroSecs>& arrivals :
       {std::vector<MicroSecs>{5 * kMicrosPerSec, kMicrosPerSec},
        std::vector<MicroSecs>{-3}}) {
    PlatformEngine engine(config, 1);
    EXPECT_THROW(engine.Start(arrivals, PyAesWorkload()), std::invalid_argument);
  }
}

// StartAttempt adds the workload's io_wait to the clock: at INT64_MAX - 10
// the sanitized build overflowed `now + overhead + workload.io_wait`. At the
// ceiling a request runs to its end; samples and scaling rounds re-arm once
// a century, not once a second.
TEST(ValidationTest, PlatformEngineRejectsIoWaitOutsideTheCeiling) {
  PlatformSimConfig config = AwsLambdaPlatform(1.0, 1769.0);
  config.autoscaler.sample_interval = kMaxDuration;
  config.autoscaler.eval_interval = kMaxDuration;
  WorkloadSpec workload = PyAesWorkload();
  for (const MicroSecs io_wait : {kMaxDuration + 1, MicroSecs{-1}}) {
    workload.io_wait = io_wait;
    PlatformEngine engine(config, 1);
    EXPECT_THROW(engine.Start({0}, workload), std::invalid_argument) << io_wait;
  }
  workload.io_wait = kMaxDuration;
  PlatformEngine engine(config, 1);
  engine.Start({0}, workload);
  engine.RunToEnd();
  const PlatformSimResult run = engine.Finish();
  EXPECT_EQ(run.successes, 1);
  EXPECT_GT(run.requests.front().completion, kMaxDuration);
}

TEST(ValidationTest, ColdStartProbabilityRejectsZeroSamples) {
  const PlatformSimConfig config = AwsLambdaPlatform(1.0, 1769.0);
  EXPECT_THROW(ColdStartProbability(config, PyAesWorkload(), kMicrosPerSec, 0, 1),
               std::invalid_argument);
}

TEST(ValidationTest, FleetSimConfigRejectsAnEmptyServer) {
  FleetSimConfig config;
  config.server.vcpus = 0.0;
  EXPECT_FALSE(config.Validate().empty());
  EXPECT_THROW(SimulateFleet({}, MakeBillingModel(Platform::kAwsLambda), config),
               std::invalid_argument);
}

// The generator's only guard was an assert that combos is non-empty, before
// it dereferenced combos.back().
TEST(ValidationTest, TraceGeneratorRejectsInvalidConfigs) {
  TraceGenConfig no_combos;
  no_combos.combos.clear();
  EXPECT_THROW(TraceGenerator(no_combos, 1), std::invalid_argument);
  TraceGenConfig no_functions;
  no_functions.num_functions = 0;
  EXPECT_THROW(TraceGenerator(no_functions, 1), std::invalid_argument);
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
  EXPECT_EQ(wf, "invalid WorkflowSimConfig: workflows must be >= 0, got -1; wps must be > 0, got 0");

  // zones_per_region 0 also checks the topology is validated before it is
  // built (its region count divides by zones_per_region).
  NetworkModelConfig net;
  net.topology.zones_per_region = 0;
  net.class_a_ops_per_request = -1;
  const std::string nm = message([&] { NetworkModel model(net, NetworkPricing{}, 1); });
  EXPECT_EQ(nm.find('\n'), std::string::npos) << nm;
  EXPECT_NE(nm.find("zones_per_region must be >= 1, got 0; "), std::string::npos) << nm;
}

}  // namespace
}  // namespace faascost
