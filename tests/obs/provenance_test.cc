// Cross-layer cost-provenance invariants: attaching observability sinks must
// not perturb simulation results (bit-identical outcomes), and the billed
// dollars attached to spans must reproduce the run's invoice totals.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/core/observe.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/sched/host_sim.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

PlatformSimConfig FaultyAws() {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.crash_prob = 0.05;
  cfg.faults.init_failure_prob = 0.01;
  cfg.retry.max_attempts = 3;
  return cfg;
}

PlatformSimResult RunPlatform(const PlatformSimConfig& cfg) {
  PlatformSim sim(cfg, /*seed=*/11);
  return sim.Run(UniformArrivals(6.0, 40 * kMicrosPerSec), PyAesWorkload());
}

void ExpectSameResults(const PlatformSimResult& a, const PlatformSimResult& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    EXPECT_EQ(a.attempts[i].outcome, b.attempts[i].outcome) << i;
    EXPECT_EQ(a.attempts[i].dispatched, b.attempts[i].dispatched) << i;
    EXPECT_EQ(a.attempts[i].start_exec, b.attempts[i].start_exec) << i;
    EXPECT_EQ(a.attempts[i].end, b.attempts[i].end) << i;
    EXPECT_EQ(a.attempts[i].exec_duration, b.attempts[i].exec_duration) << i;
    EXPECT_EQ(a.attempts[i].cold_start, b.attempts[i].cold_start) << i;
    EXPECT_EQ(a.attempts[i].init_duration, b.attempts[i].init_duration) << i;
    EXPECT_EQ(a.attempts[i].sandbox_id, b.attempts[i].sandbox_id) << i;
  }
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].completion, b.requests[i].completion) << i;
    EXPECT_EQ(a.requests[i].e2e_latency, b.requests[i].e2e_latency) << i;
    EXPECT_EQ(a.requests[i].outcome, b.requests[i].outcome) << i;
  }
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.total_instance_seconds, b.total_instance_seconds);
}

TEST(PlatformProvenance, AttachedSinksDoNotPerturbResults) {
  const PlatformSimResult plain = RunPlatform(FaultyAws());

  PlatformSimConfig traced_cfg = FaultyAws();
  SpanCollector spans;
  TimeSeries series(10 * kMicrosPerSec);
  EngineProfiler prof;
  traced_cfg.trace = &spans;
  traced_cfg.timeseries = &series;
  traced_cfg.profiler = &prof;
  const PlatformSimResult traced = RunPlatform(traced_cfg);

  ExpectSameResults(plain, traced);
  EXPECT_FALSE(spans.spans().empty());
  EXPECT_GT(series.window_count(), 0u);
  EXPECT_GT(prof.events_total(), 0);
}

TEST(PlatformProvenance, EveryAttemptHasExactlyOneTerminalSpan) {
  PlatformSimConfig cfg = FaultyAws();
  SpanCollector spans;
  cfg.trace = &spans;
  const PlatformSimResult res = RunPlatform(cfg);

  std::vector<int> terminal_count(res.attempts.size(), 0);
  for (const Span& sp : spans.spans()) {
    if (sp.terminal) {
      ASSERT_GE(sp.ref, 0);
      ASSERT_LT(sp.ref, static_cast<int64_t>(res.attempts.size()));
      ++terminal_count[static_cast<size_t>(sp.ref)];
    }
  }
  for (size_t i = 0; i < terminal_count.size(); ++i) {
    EXPECT_EQ(terminal_count[i], 1) << "attempt " << i;
  }
}

TEST(PlatformProvenance, SpanUsdTagsSumToInvoiceTotals) {
  PlatformSimConfig cfg = FaultyAws();
  SpanCollector spans;
  cfg.trace = &spans;
  const PlatformSimResult res = RunPlatform(cfg);

  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const ProvenanceTotals totals =
      TagPlatformSpanBilling(spans.mutable_spans(), res, cfg, billing);
  EXPECT_EQ(totals.tagged_spans, static_cast<int64_t>(res.attempts.size()));

  // Independent pass over the attempts.
  Usd expected = 0.0;
  for (const auto& att : res.attempts) {
    expected += ComputeInvoice(billing, BillableRecord(att, cfg.vcpus, cfg.mem_mb)).total;
  }
  EXPECT_GT(expected, 0.0);
  EXPECT_NEAR(totals.billed_usd, expected, 1e-9);

  Usd span_sum = 0.0;
  for (const Span& sp : spans.spans()) {
    span_sum += sp.billed_usd;
  }
  EXPECT_NEAR(span_sum, expected, 1e-9);
}

TEST(FleetProvenance, TerminalSpanUsdSumsToRevenue) {
  TraceGenConfig tcfg;
  tcfg.num_requests = 5'000;
  tcfg.num_functions = 50;
  const auto trace = TraceGenerator(tcfg, 9).Generate();
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  FleetSimConfig cfg;
  cfg.retry.max_attempts = 3;
  cfg.host_faults.hosts = 8;
  cfg.host_faults.mtbf_seconds = 1'800.0;
  cfg.fault_seed = 5;
  const FleetResult plain = SimulateFleet(trace, billing, cfg);

  SpanCollector spans;
  cfg.trace_sink = &spans;
  const FleetResult traced = SimulateFleet(trace, billing, cfg);

  // Sinks leave the simulation bit-identical.
  EXPECT_EQ(plain.successes, traced.successes);
  EXPECT_EQ(plain.attempts, traced.attempts);
  EXPECT_EQ(plain.cold_starts, traced.cold_starts);
  EXPECT_DOUBLE_EQ(plain.revenue, traced.revenue);
  EXPECT_DOUBLE_EQ(plain.fee_revenue, traced.fee_revenue);

  // Terminal spans are emitted at the exact revenue-accumulation points, so
  // their USD tags reproduce the invoice total bit-for-bit.
  Usd span_sum = 0.0;
  int64_t terminal = 0;
  for (const Span& sp : spans.spans()) {
    if (sp.terminal) {
      span_sum += sp.billed_usd;
      ++terminal;
    }
  }
  EXPECT_EQ(terminal, traced.attempts);
  EXPECT_DOUBLE_EQ(span_sum, traced.revenue);
}

TEST(HostProvenance, SpansMatchDetectedGaps) {
  HostSimConfig cfg;
  cfg.cores = 2;
  cfg.duration = 5LL * kMicrosPerSec;
  const std::vector<TenantSpec> tenants{{0.3, 1.0, 1.0}, {0.3, 1.0, 1.0},
                                        {0.3, 1.0, 0.8}, {0.3, 1.0, 0.8}};
  const HostSimResult plain = SimulateHost(cfg, tenants, /*seed=*/13);

  SpanCollector spans;
  cfg.trace = &spans;
  const HostSimResult traced = SimulateHost(cfg, tenants, /*seed=*/13);

  ASSERT_EQ(plain.tenants.size(), traced.tenants.size());
  EXPECT_DOUBLE_EQ(plain.host_utilization, traced.host_utilization);

  for (size_t i = 0; i < traced.tenants.size(); ++i) {
    EXPECT_EQ(plain.tenants[i].cpu_obtained, traced.tenants[i].cpu_obtained) << i;
    // One throttle/preempt span per detected gap, with matching bounds.
    std::vector<const Span*> tenant_spans;
    for (const Span& sp : spans.spans()) {
      if (sp.group == kTrackGroupTenant && sp.track == static_cast<int64_t>(i)) {
        tenant_spans.push_back(&sp);
      }
    }
    ASSERT_EQ(tenant_spans.size(), traced.tenants[i].gaps.size()) << i;
    for (size_t g = 0; g < tenant_spans.size(); ++g) {
      EXPECT_EQ(tenant_spans[g]->start, traced.tenants[i].gaps[g].start);
      EXPECT_EQ(tenant_spans[g]->duration, traced.tenants[i].gaps[g].duration);
      EXPECT_TRUE(tenant_spans[g]->kind == SpanKind::kThrottle ||
                  tenant_spans[g]->kind == SpanKind::kPreempt);
    }
  }
}

TEST(BandwidthProvenance, TaskRunSpansCoverThrottlesAndGaps) {
  const SchedConfig sched = MakeSchedConfig(20 * kMicrosPerMilli, 0.072, 250);
  const CpuBandwidthSim sim(sched);
  const TaskRunResult run = sim.Run(8 * kMicrosPerMilli, 200 * kMicrosPerMilli);
  ASSERT_FALSE(run.throttles.empty());

  SpanCollector spans;
  EmitTaskRunSpans(run, /*start_time=*/1'000, /*track=*/2, &spans);

  int execs = 0;
  int throttles = 0;
  for (const Span& sp : spans.spans()) {
    EXPECT_EQ(sp.group, kTrackGroupTenant);
    EXPECT_EQ(sp.track, 2);
    if (sp.kind == SpanKind::kExec) {
      ++execs;
      EXPECT_EQ(sp.start, 1'000);
      EXPECT_EQ(sp.duration, run.wall_duration);
    } else if (sp.kind == SpanKind::kThrottle) {
      ++throttles;
    }
  }
  EXPECT_EQ(execs, 1);
  EXPECT_EQ(throttles, static_cast<int>(run.throttles.size()));

  // Null sink: no-op.
  EmitTaskRunSpans(run, 0, 0, nullptr);
}

}  // namespace
}  // namespace faascost
