// Tests for the fleet-level serving simulation.

#include "src/cluster/fleet_sim.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/billing/catalog.h"
#include "src/obs/engine_profiler.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kMs = kMicrosPerMilli;

RequestRecord Req(int64_t fn, MicroSecs arrival, int64_t exec_ms = 100) {
  RequestRecord r;
  r.function_id = fn;
  r.arrival = arrival;
  r.exec_duration = exec_ms * kMs;
  r.cpu_time = exec_ms * kMs / 2;
  r.alloc_vcpus = 1.0;
  r.alloc_mem_mb = 2'048.0;
  r.used_mem_mb = 500.0;
  return r;
}

FleetSimConfig QuickConfig() {
  FleetSimConfig c;
  c.keepalive = 60 * kSec;
  c.init_duration = 400 * kMs;
  return c;
}

TEST(FleetSim, SingleRequestIsOneColdSandbox) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetResult r = SimulateFleet({Req(1, 0)}, billing, QuickConfig());
  EXPECT_EQ(r.requests, 1);
  EXPECT_EQ(r.cold_starts, 1);
  EXPECT_EQ(r.sandboxes, 1);
  ASSERT_EQ(r.spans.size(), 1u);
  // Lifetime = init + exec + keep-alive.
  EXPECT_EQ(r.spans[0].destroyed_at - r.spans[0].created_at,
            400 * kMs + 100 * kMs + 60 * kSec);
}

TEST(FleetSim, WarmReuseWithinKeepAlive) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetResult r =
      SimulateFleet({Req(1, 0), Req(1, 30 * kSec)}, billing, QuickConfig());
  EXPECT_EQ(r.cold_starts, 1);
  EXPECT_EQ(r.sandboxes, 1);
  EXPECT_EQ(r.spans[0].requests, 2);
}

// Sandboxes freed at the same instant: reuse takes the one created first
// (the earliest pool slot).
TEST(FleetSim, ReuseTieGoesToTheEarliestCreatedSandbox) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetResult r = SimulateFleet({Req(1, 0), Req(1, 0), Req(1, 0), Req(1, 10 * kSec)},
                                      billing, QuickConfig());
  ASSERT_EQ(r.spans.size(), 3u);
  EXPECT_EQ(r.spans[0].requests, 2);
  EXPECT_EQ(r.spans[1].requests, 1);
  EXPECT_EQ(r.spans[2].requests, 1);
}

TEST(FleetSim, ColdAfterKeepAliveExpiry) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetResult r =
      SimulateFleet({Req(1, 0), Req(1, 200 * kSec)}, billing, QuickConfig());
  EXPECT_EQ(r.cold_starts, 2);
  EXPECT_EQ(r.sandboxes, 2);
}

TEST(FleetSim, ConcurrentArrivalsFanOut) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  // Three overlapping requests of the same function -> three sandboxes
  // (single-concurrency serving).
  const FleetResult r = SimulateFleet(
      {Req(1, 0, 5'000), Req(1, 10 * kMs, 5'000), Req(1, 20 * kMs, 5'000)}, billing,
      QuickConfig());
  EXPECT_EQ(r.sandboxes, 3);
  EXPECT_EQ(r.cold_starts, 3);
}

TEST(FleetSim, DistinctFunctionsNeverShareSandboxes) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetResult r =
      SimulateFleet({Req(1, 0), Req(2, 10 * kSec)}, billing, QuickConfig());
  EXPECT_EQ(r.sandboxes, 2);
}

TEST(FleetSim, RevenueIncludesFees) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetResult r =
      SimulateFleet({Req(1, 0), Req(1, 10 * kSec)}, billing, QuickConfig());
  EXPECT_NEAR(r.fee_revenue, 2 * 2e-7, 1e-12);
  EXPECT_GT(r.revenue, r.fee_revenue);
}

TEST(FleetSim, FrozenKaShareCutsHardwareCost) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  FleetSimConfig live = QuickConfig();
  live.ka_cost_share = 1.0;
  FleetSimConfig frozen = QuickConfig();
  frozen.ka_cost_share = 0.03;
  const std::vector<RequestRecord> trace = {Req(1, 0), Req(2, 5 * kSec)};
  const FleetResult r_live = SimulateFleet(trace, billing, live);
  const FleetResult r_frozen = SimulateFleet(trace, billing, frozen);
  EXPECT_LT(r_frozen.hardware_cost, r_live.hardware_cost * 0.2);
  EXPECT_DOUBLE_EQ(r_live.revenue, r_frozen.revenue);
}

TEST(FleetSim, PeakServersTracksConcurrentSandboxes) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  FleetSimConfig cfg = QuickConfig();
  cfg.server.vcpus = 2.0;  // Two 1-vCPU sandboxes per server.
  cfg.server.mem_mb = 8'192.0;
  std::vector<RequestRecord> trace;
  for (int i = 0; i < 8; ++i) {
    trace.push_back(Req(i, 0));  // 8 concurrent sandboxes -> 4 servers.
  }
  const FleetResult r = SimulateFleet(trace, billing, cfg);
  EXPECT_EQ(r.peak_servers, 4);
}

TEST(FleetSim, AccountingConsistentOnGeneratedTrace) {
  TraceGenConfig gen_cfg;
  gen_cfg.num_requests = 20'000;
  gen_cfg.num_functions = 500;
  const auto trace = TraceGenerator(gen_cfg, 5).Generate();
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetResult r = SimulateFleet(trace, billing, QuickConfig());
  EXPECT_EQ(r.requests, 20'000);
  EXPECT_GT(r.cold_starts, 0);
  EXPECT_LE(r.cold_starts, r.requests);
  EXPECT_EQ(r.sandboxes, r.cold_starts);  // One span per cold start.
  // Spans partition lifetimes into busy + idle.
  for (const auto& span : r.spans) {
    EXPECT_NEAR(static_cast<double>(span.busy + span.idle),
                static_cast<double>(span.destroyed_at - span.created_at), 1.0);
    EXPECT_GE(span.requests, 1);
  }
  EXPECT_GT(r.revenue, 0.0);
  EXPECT_GT(r.hardware_cost, 0.0);
  EXPECT_GT(r.peak_servers, 0);
}

TEST(FleetSim, LongerKeepAliveFewerColdStartsMoreIdle) {
  TraceGenConfig gen_cfg;
  gen_cfg.num_requests = 10'000;
  gen_cfg.num_functions = 300;
  const auto trace = TraceGenerator(gen_cfg, 6).Generate();
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  FleetSimConfig short_ka = QuickConfig();
  short_ka.keepalive = 30 * kSec;
  FleetSimConfig long_ka = QuickConfig();
  long_ka.keepalive = 600 * kSec;
  const FleetResult r_short = SimulateFleet(trace, billing, short_ka);
  const FleetResult r_long = SimulateFleet(trace, billing, long_ka);
  EXPECT_GT(r_short.cold_starts, r_long.cold_starts);
  EXPECT_LT(r_short.idle_seconds, r_long.idle_seconds);
}

// Initial attempts stream from a cursor over the trace, so an out-of-order
// record is an input error, never something to reorder silently; so is a
// negative duration.
TEST(FleetEngineInput, StartRejectsUnsortedTrace) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  const std::vector<RequestRecord> unsorted = {Req(1, 0), Req(2, 5 * kSec),
                                               Req(1, 2 * kSec)};
  FleetEngine engine(QuickConfig());
  EXPECT_THROW(engine.Start(unsorted, billing), std::invalid_argument);
  EXPECT_THROW(SimulateFleet(unsorted, billing, QuickConfig()), std::invalid_argument);
  std::vector<RequestRecord> negative = {Req(1, 0), Req(1, kSec)};
  negative[1].exec_duration = -1;
  EXPECT_THROW(SimulateFleet(negative, billing, QuickConfig()), std::invalid_argument);
  // Equal arrivals are sorted.
  const std::vector<RequestRecord> ties = {Req(1, 0), Req(2, 0), Req(1, 0)};
  EXPECT_EQ(SimulateFleet(ties, billing, QuickConfig()).successes, 3);
}

// Record times past the duration ceiling would overflow the engine's sums of
// them: two records whose exec_duration sits 10 us below INT64_MAX overflow
// `body_start + effective` in StepOne (9223372036854775797 + 400000) unless
// rejected. Each of a record's four times must lie in [0, kMaxDuration].
TEST(FleetEngineInput, RecordTimesPastTheCeilingAreRejected) {
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  std::vector<RequestRecord> huge = {Req(1, 0), Req(2, kSec)};
  for (RequestRecord& r : huge) {
    r.exec_duration = 9'223'372'036'854'775'797;
  }
  EXPECT_THROW(SimulateFleet(huge, billing, QuickConfig()), std::invalid_argument);
  for (MicroSecs RequestRecord::*field :
       {&RequestRecord::arrival, &RequestRecord::exec_duration, &RequestRecord::cpu_time,
        &RequestRecord::init_duration}) {
    for (const MicroSecs bad : {MicroSecs{-1}, kMaxDuration + 1}) {
      std::vector<RequestRecord> trace = {Req(1, 0)};
      trace[0].*field = bad;
      FleetEngine engine(QuickConfig());
      EXPECT_THROW(engine.Start(trace, billing), std::invalid_argument) << bad;
    }
    std::vector<RequestRecord> ceiling = {Req(1, 0)};
    ceiling[0].*field = kMaxDuration;
    FleetEngine engine(QuickConfig());
    EXPECT_NO_THROW(engine.Start(ceiling, billing));
  }
}

// The engine's queue holds only retries, never the trace itself: memory
// follows live state, not trace length.
TEST(FleetEngineMemory, QueueHoldsOnlyRetries) {
  TraceGenConfig gen_cfg;
  gen_cfg.num_requests = 20'000;
  gen_cfg.num_functions = 100;
  gen_cfg.window = 3'600 * kSec;
  gen_cfg.exec_mean_ms = 500.0;
  const auto trace = TraceGenerator(gen_cfg, 3).Generate();
  const auto billing = MakeBillingModel(Platform::kAwsLambda);

  EngineProfiler clean_prof(/*queue_sample_every=*/1);
  FleetSimConfig clean = QuickConfig();
  clean.profiler = &clean_prof;
  const FleetResult r = SimulateFleet(trace, billing, clean);
  EXPECT_EQ(clean_prof.events_total(), r.attempts);
  EXPECT_EQ(clean_prof.queue_depth_peak(), 0);

  EngineProfiler chaos_prof(/*queue_sample_every=*/1);
  FleetSimConfig chaos = QuickConfig();
  chaos.profiler = &chaos_prof;
  chaos.failure_rate = 0.1;
  chaos.retry.max_attempts = 3;
  chaos.host_faults.hosts = 8;
  chaos.host_faults.mtbf_seconds = 300.0;
  chaos.host_faults.mttr_seconds = 30.0;
  const FleetResult c = SimulateFleet(trace, billing, chaos);
  EXPECT_GT(c.retries, 0);
  EXPECT_GT(chaos_prof.queue_depth_peak(), 0);
  EXPECT_LE(chaos_prof.queue_depth_peak(), c.retries);
}

TEST(BucketEconomics, BucketsPartitionFunctionsAndOrderColdStarts) {
  TraceGenConfig gen_cfg;
  gen_cfg.num_requests = 50'000;
  gen_cfg.num_functions = 1'000;
  const auto trace = TraceGenerator(gen_cfg, 7).Generate();
  const auto billing = MakeBillingModel(Platform::kAwsLambda);
  FleetSimConfig cfg = QuickConfig();
  cfg.ka_cost_share = 0.03;  // AWS freezes during KA.
  const FleetResult r = SimulateFleet(trace, billing, cfg);
  const auto buckets = BucketEconomics(r, trace, billing, cfg, 5);
  ASSERT_EQ(buckets.size(), 5u);
  int64_t fn_total = 0;
  for (const auto& b : buckets) {
    fn_total += b.functions;
    EXPECT_GT(b.revenue, 0.0);
    EXPECT_GT(b.hardware_cost, 0.0);
  }
  EXPECT_EQ(fn_total, 1'000);
  // Popular functions hit warm sandboxes far more often.
  EXPECT_LT(buckets.front().cold_start_rate, buckets.back().cold_start_rate);
}

TEST(BucketEconomics, TurnaroundBillingRescuesSparseFunctions) {
  // The paper's §2.4 rationale, fleet-wide: sandboxes of rarely-invoked
  // functions are dominated by initialization and keep-alive cost. Under
  // execution-time billing their revenue misses all of that; turnaround
  // billing recovers the initialization, lifting the sparse (bottom) bucket
  // far more than the popular (top) one.
  TraceGenConfig gen_cfg;
  gen_cfg.num_requests = 50'000;
  gen_cfg.num_functions = 1'000;
  const auto trace = TraceGenerator(gen_cfg, 8).Generate();
  BillingModel exec_model = MakeBillingModel(Platform::kAwsLambda);
  exec_model.billable_time = BillableTime::kExecution;
  const BillingModel turnaround_model = MakeBillingModel(Platform::kAwsLambda);
  FleetSimConfig cfg = QuickConfig();
  cfg.ka_cost_share = 0.03;

  const FleetResult r_exec = SimulateFleet(trace, exec_model, cfg);
  const FleetResult r_turn = SimulateFleet(trace, turnaround_model, cfg);
  const auto b_exec = BucketEconomics(r_exec, trace, exec_model, cfg, 5);
  const auto b_turn = BucketEconomics(r_turn, trace, turnaround_model, cfg, 5);

  const double bottom_lift = b_turn.back().revenue / b_exec.back().revenue;
  const double top_lift = b_turn.front().revenue / b_exec.front().revenue;
  EXPECT_GT(bottom_lift, 1.5);       // Sparse bucket: mostly cold starts.
  EXPECT_GT(bottom_lift, top_lift);  // And lifted more than the top bucket.
  EXPECT_GT(r_turn.revenue, r_exec.revenue);
}

}  // namespace
}  // namespace faascost
