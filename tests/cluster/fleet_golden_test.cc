// Field-level FleetResult goldens: three fleet shapes (host chaos, zone
// outages, crashes + breaker) at seeds 7 and 8. Counts are pinned as
// integers, every double (USD, seconds, margin) as its IEEE-754 bit pattern,
// and the per-request e2e latencies and every SandboxSpan as FNV digests
// over all their fields. A fourth, observed shape (execution timeouts, host
// faults, the breaker and a 3-zone network with an outage) also pins digests
// over every emitted span and every time-series window.
//
// The values were computed by the engine that preloaded every arrival into
// its heap and swept every sandbox a function ever created on each arrival.
// The O(live state) engine must reproduce them exactly: straight through,
// in AdvanceUntil slices, and across a mid-run checkpoint/resume. A failure
// prints the actual table, ready to paste if a change is meant to move it.
// Two changes did. Since the fleet counts failures under the platform's
// taxonomy (AttemptFailures), timeout_attempts includes the queue timeouts.
// Since the fleet has no sandbox cap or admission queue (admission control
// is PlatformSim's), the breaker and observed shapes run uncapped: their
// rows were re-pinned, and a cap-only shape went with the cap.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/digest.h"
#include "src/net/model.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/trace/generator.h"
#include "tests/golden_table.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kWindow = 1'200 * kSec;

enum class Shape { kHostChaos, kZoneOutages, kBreaker, kObserved };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kHostChaos:
      return "kHostChaos";
    case Shape::kZoneOutages:
      return "kZoneOutages";
    case Shape::kBreaker:
      return "kBreaker";
    case Shape::kObserved:
      return "kObserved";
  }
  return "?";
}

// A short keep-alive, so that sandboxes also expire idle, not only die.
FleetSimConfig ShapeConfig(Shape shape, uint64_t seed) {
  FleetSimConfig cfg;
  cfg.fault_seed = seed;
  cfg.keepalive = 60 * kSec;
  cfg.retry.max_attempts = 3;
  switch (shape) {
    case Shape::kHostChaos:
      cfg.host_faults.hosts = 16;
      cfg.host_faults.mtbf_seconds = 150.0;
      cfg.host_faults.mttr_seconds = 30.0;
      cfg.host_faults.graceful_fraction = 0.3;
      break;
    case Shape::kZoneOutages:
      cfg.host_faults.hosts = 12;
      cfg.host_faults.zones = 3;
      cfg.host_faults.zone_outage_mtbf_seconds = 240.0;
      cfg.host_faults.mtbf_seconds = 1'800.0;
      cfg.host_faults.mttr_seconds = 60.0;
      cfg.host_faults.graceful_fraction = 0.3;
      break;
    case Shape::kBreaker:
      cfg.failure_rate = 0.2;
      cfg.retry.breaker_threshold = 3;
      cfg.retry.breaker_cooldown = 5 * kSec;
      break;
    case Shape::kObserved:
      cfg.failure_rate = 0.05;
      cfg.max_exec_duration = 2 * kSec;
      cfg.retry.breaker_threshold = 4;
      cfg.retry.breaker_cooldown = 3 * kSec;
      cfg.host_faults.hosts = 12;
      cfg.host_faults.mtbf_seconds = 600.0;
      cfg.host_faults.mttr_seconds = 60.0;
      cfg.host_faults.graceful_fraction = 0.3;
      break;
  }
  return cfg;
}

// Hot and slow enough that requests overlap: the most popular of 40
// functions sees about one ~1 s request per second.
std::vector<RequestRecord> ShapeTrace(uint64_t seed) {
  TraceGenConfig cfg;
  cfg.num_requests = 8'000;
  cfg.num_functions = 40;
  cfg.window = kWindow;
  cfg.exec_mean_ms = 1'000.0;
  return TraceGenerator(cfg, seed).Generate();
}

using golden::Bits;
using golden::Hex;

// Every FleetResult field, as (name, rendered value) in declaration order.
golden::Fields Render(const FleetResult& r) {
  StateDigest e2e;
  for (const MicroSecs x : r.e2e_latency) {
    e2e.MixI64(x);
  }
  StateDigest spans;
  for (const SandboxSpan& s : r.spans) {
    spans.MixI64(s.function_id);
    spans.MixDouble(s.vcpus);
    spans.MixDouble(s.mem_mb);
    spans.MixI64(s.created_at);
    spans.MixI64(s.destroyed_at);
    spans.MixI64(s.busy);
    spans.MixI64(s.idle);
    spans.MixI64(s.requests);
    spans.MixI64(s.host);
  }
  const auto n = [](int64_t v) { return std::to_string(v); };
  return {
      {"requests", n(r.requests)},
      {"attempts", n(r.attempts)},
      {"cold_starts", n(r.cold_starts)},
      {"sandboxes", n(r.sandboxes)},
      {"failed_attempts", n(r.failed_attempts)},
      {"crash_attempts", n(r.crash_attempts)},
      {"timeout_attempts", n(r.timeout_attempts)},
      {"init_failure_attempts", n(r.init_failure_attempts)},
      {"retries", n(r.retries)},
      {"retries_exhausted", n(r.retries_exhausted)},
      {"successes", n(r.successes)},
      {"rejected_attempts", n(r.rejected_attempts)},
      {"queue_timeout_attempts", n(r.queue_timeout_attempts)},
      {"circuit_open_attempts", n(r.circuit_open_attempts)},
      {"breaker_trips", n(r.breaker_trips)},
      {"host_fault_attempt_kills", n(r.host_fault_attempt_kills)},
      {"host_fault_sandbox_kills", n(r.host_fault_sandbox_kills)},
      {"drain_survivals", n(r.drain_survivals)},
      {"e2e_latency", Hex(e2e.value())},
      {"sandbox_seconds", Bits(r.sandbox_seconds)},
      {"busy_seconds", Bits(r.busy_seconds)},
      {"idle_seconds", Bits(r.idle_seconds)},
      {"peak_servers", n(r.peak_servers)},
      {"revenue", Bits(r.revenue)},
      {"fee_revenue", Bits(r.fee_revenue)},
      {"hardware_cost", Bits(r.hardware_cost)},
      {"margin", Bits(r.margin)},
      {"spans", Hex(spans.value())},
      {"net_transfers", n(r.net_transfers)},
      {"net_bytes", n(r.net_bytes)},
      {"network_transfer_usd", Bits(r.network_transfer_usd)},
      {"network_ops_usd", Bits(r.network_ops_usd)},
      {"network_detour_usd", Bits(r.network_detour_usd)},
      {"network_bill_transfers", n(r.network_bill.transfers)},
      {"network_bill_usd", Bits(r.network_bill.TotalUsd())},
  };
}

struct Golden {
  Shape shape;
  uint64_t seed;
  const char* fields;  // Whitespace-separated name=value pairs.
};

// clang-format off
const Golden kGoldens[] = {
    {Shape::kHostChaos, 7,
     "requests=8000 attempts=8053 cold_starts=653 "
     "sandboxes=653 failed_attempts=53 crash_attempts=50 "
     "timeout_attempts=0 init_failure_attempts=3 retries=53 "
     "retries_exhausted=0 successes=8000 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=0 breaker_trips=0 "
     "host_fault_attempt_kills=53 "
     "host_fault_sandbox_kills=477 drain_survivals=8 e2e_latency=0x8fd25f8ed787c2c0 "
     "sandbox_seconds=0x40f25ad8447e49b4 busy_seconds=0x40c34d834ac29bf8 idle_seconds=0x40efe24fb64bec5e "
     "peak_servers=2 revenue=0x3fdb1dc99f9e62f9 fee_revenue=0x3f5a635894ec862a "
     "hardware_cost=0x3fea927a8d6703ae margin=0xbfeeb7340e48c554 spans=0x59bae9bad24b02d0 "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kZoneOutages, 7,
     "requests=8000 attempts=8019 cold_starts=435 "
     "sandboxes=435 failed_attempts=19 crash_attempts=19 "
     "timeout_attempts=0 init_failure_attempts=0 retries=19 "
     "retries_exhausted=0 successes=8000 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=0 breaker_trips=0 "
     "host_fault_attempt_kills=19 "
     "host_fault_sandbox_kills=130 drain_survivals=0 e2e_latency=0x0be8ad60e02e2b30 "
     "sandbox_seconds=0x40f419ede38c9752 busy_seconds=0x40c2e7fc787ce961 idle_seconds=0x40f1bcee547cfa2b "
     "peak_servers=2 revenue=0x3fda70e6a996c459 fee_revenue=0x3f5a46d323281dc0 "
     "hardware_cost=0x3fed4e0315ebed93 margin=0xbff3773da8c18ff9 spans=0x9c6c9e424e46dbcb "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kBreaker, 7,
     "requests=8000 attempts=10330 cold_starts=2113 "
     "sandboxes=2113 failed_attempts=2640 crash_attempts=1957 "
     "timeout_attempts=0 init_failure_attempts=0 retries=2330 "
     "retries_exhausted=310 successes=7690 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=683 breaker_trips=82 "
     "host_fault_attempt_kills=0 host_fault_sandbox_kills=0 drain_survivals=0 "
     "e2e_latency=0x679c291ed3542e2b sandbox_seconds=0x40f16595ab0a6fc4 busy_seconds=0x40c57ccd9591cd19 "
     "idle_seconds=0x40ed6bf7f0b06c45 peak_servers=2 revenue=0x3fddf124e3698738 "
     "fee_revenue=0x3f5f9c7d79a85a0c hardware_cost=0x3fe90b7919b2c753 margin=0xbfe588517b8486b7 "
     "spans=0xe8912f444e816dbd net_transfers=0 net_bytes=0 "
     "network_transfer_usd=0x0000000000000000 network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 "
     "network_bill_transfers=0 network_bill_usd=0x0000000000000000 "},
    {Shape::kHostChaos, 8,
     "requests=8000 attempts=8041 cold_starts=654 "
     "sandboxes=654 failed_attempts=41 crash_attempts=39 "
     "timeout_attempts=0 init_failure_attempts=2 retries=41 "
     "retries_exhausted=0 successes=8000 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=0 breaker_trips=0 "
     "host_fault_attempt_kills=41 "
     "host_fault_sandbox_kills=428 drain_survivals=7 e2e_latency=0xc44126b2b2f9420d "
     "sandbox_seconds=0x40f2da788385c680 busy_seconds=0x40c2b12954866a13 idle_seconds=0x40f0845358f4f939 "
     "peak_servers=2 revenue=0x3fdc18e642397a8d fee_revenue=0x3f5a594799f27f6e "
     "hardware_cost=0x3fec9fa7dea57888 margin=0xbff099795ca5427a spans=0x47a8806d0c27a799 "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kZoneOutages, 8,
     "requests=8000 attempts=8017 cold_starts=461 "
     "sandboxes=461 failed_attempts=17 crash_attempts=17 "
     "timeout_attempts=0 init_failure_attempts=0 retries=17 "
     "retries_exhausted=0 successes=8000 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=0 breaker_trips=0 "
     "host_fault_attempt_kills=17 "
     "host_fault_sandbox_kills=139 drain_survivals=1 e2e_latency=0x0785ee4d85c4c80c "
     "sandbox_seconds=0x40f409d5d2f2b670 busy_seconds=0x40c25795cd67fd3e idle_seconds=0x40f1bee31945b6bf "
     "peak_servers=2 revenue=0x3fdb58746bdaf5ad fee_revenue=0x3f5a4525a3fe71f6 "
     "hardware_cost=0x3fee6072f4f12950 margin=0xbff38c137652817c spans=0x4b0f4e4fc863003a "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kBreaker, 8,
     "requests=8000 attempts=10358 cold_starts=2079 "
     "sandboxes=2079 failed_attempts=2708 crash_attempts=1916 "
     "timeout_attempts=0 init_failure_attempts=0 retries=2358 "
     "retries_exhausted=350 successes=7650 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=792 breaker_trips=81 "
     "host_fault_attempt_kills=0 host_fault_sandbox_kills=0 drain_survivals=0 "
     "e2e_latency=0x866828803946bf9f sandbox_seconds=0x40f15d313bf1e8e1 busy_seconds=0x40c4d573dab5c38c "
     "idle_seconds=0x40ed8505813660d4 peak_servers=2 revenue=0x3fdefe41fe48dda8 "
     "fee_revenue=0x3f5f588adb90ac97 hardware_cost=0x3fe9d06b185ee6f3 margin=0xbfe54e2e9a136e8e "
     "spans=0xf8119c1f0a60f8ad net_transfers=0 net_bytes=0 "
     "network_transfer_usd=0x0000000000000000 network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 "
     "network_bill_transfers=0 network_bill_usd=0x0000000000000000 "},
    {Shape::kObserved, 7,
     "requests=8000 attempts=11307 cold_starts=759 "
     "sandboxes=759 failed_attempts=4787 crash_attempts=443 "
     "timeout_attempts=2623 init_failure_attempts=0 retries=3307 "
     "retries_exhausted=1480 successes=6520 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=1721 breaker_trips=216 "
     "host_fault_attempt_kills=10 host_fault_sandbox_kills=130 drain_survivals=6 "
     "e2e_latency=0x36d53d1c85ecf898 sandbox_seconds=0x40f259741b994e1b busy_seconds=0x40c1ac94deca2550 "
     "idle_seconds=0x40f023e17fc00971 peak_servers=2 revenue=0x3fd862de7d484a36 "
     "fee_revenue=0x3f5f6951d331627b hardware_cost=0x3fea49cf3f587ccf margin=0xbff27ef8bce3513b "
     "spans=0xfd04f8db242d0b4b net_transfers=19172 net_bytes=580941871 "
     "network_transfer_usd=0x3f6b9df94e147c26 network_ops_usd=0x3fac77722764ca0f network_detour_usd=0x3f42ce54147ae143 "
     "network_bill_transfers=19172 network_bill_usd=0x3fae3151bc4611d1 trace_spans=35304 "
     "span_digest=0xc5f1fd89717e7b9f windows=21 window_digest=0x16a2f679c5836425 "},
    {Shape::kObserved, 8,
     "requests=8000 attempts=10927 cold_starts=729 "
     "sandboxes=729 failed_attempts=4231 crash_attempts=411 "
     "timeout_attempts=2651 init_failure_attempts=1 retries=2927 "
     "retries_exhausted=1304 successes=6696 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=1168 breaker_trips=227 "
     "host_fault_attempt_kills=12 host_fault_sandbox_kills=101 drain_survivals=0 "
     "e2e_latency=0xb2d9b6486dcbe04c sandbox_seconds=0x40f2881d85a3e3a4 busy_seconds=0x40c1c4a195a2940c "
     "idle_seconds=0x40f04f8952ef911c peak_servers=2 revenue=0x3fd9901e22b46cf4 "
     "fee_revenue=0x3f5ffa714ac5ee3c hardware_cost=0x3febe8e427202431 margin=0xbff2f00e1582adc0 "
     "spans=0x7e9ef2f10637f22c net_transfers=19518 net_bytes=607741253 "
     "network_transfer_usd=0x3f703aad047ae255 network_ops_usd=0x3facfaf6abc36907 network_detour_usd=0x3f4359ea851eb84d "
     "network_bill_transfers=19518 network_bill_usd=0x3faf024c4c52c552 trace_spans=34830 "
     "span_digest=0x4f377fbbc7655e9a windows=21 window_digest=0x7e176a9ab8bfb536 "},
};
// clang-format on

void ExpectGolden(Shape shape, uint64_t seed, const golden::Fields& got, const char* how) {
  const char* want = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.shape == shape && g.seed == seed) {
      want = g.fields;
    }
  }
  golden::ExpectFields("Shape::" + std::string(ShapeName(shape)) + ", " + std::to_string(seed),
                       want, got, how);
}

void ExpectGolden(Shape shape, uint64_t seed, const FleetResult& r, const char* how) {
  ExpectGolden(shape, seed, Render(r), how);
}

constexpr Shape kShapes[] = {Shape::kHostChaos, Shape::kZoneOutages, Shape::kBreaker};

TEST(FleetGolden, EveryFieldMatchesAcrossShapesAndSeeds) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (const uint64_t seed : {7ULL, 8ULL}) {
    const std::vector<RequestRecord> trace = ShapeTrace(seed);
    for (const Shape shape : kShapes) {
      ExpectGolden(shape, seed, SimulateFleet(trace, billing, ShapeConfig(shape, seed)),
                   "straight");
    }
  }
}

// The shapes exercise what they name: a golden of all zeros would pin
// nothing.
TEST(FleetGolden, ShapesExerciseTheirMechanisms) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const std::vector<RequestRecord> trace = ShapeTrace(7);
  const FleetResult chaos =
      SimulateFleet(trace, billing, ShapeConfig(Shape::kHostChaos, 7));
  EXPECT_GT(chaos.host_fault_sandbox_kills, 0);
  EXPECT_GT(chaos.host_fault_attempt_kills, 0);
  EXPECT_GT(chaos.drain_survivals, 0);
  const FleetResult zones =
      SimulateFleet(trace, billing, ShapeConfig(Shape::kZoneOutages, 7));
  EXPECT_GT(zones.host_fault_sandbox_kills, chaos.host_fault_sandbox_kills / 4);
  const FleetResult breaker = SimulateFleet(trace, billing, ShapeConfig(Shape::kBreaker, 7));
  EXPECT_GT(breaker.crash_attempts, 0);
  EXPECT_GT(breaker.breaker_trips, 0);
  EXPECT_GT(breaker.circuit_open_attempts, 0);
}

// Slicing the run and restoring it from a mid-run checkpoint reach the same
// fields: the trace cursor, the heap and the live pools are the whole state.
TEST(FleetGolden, SlicedAndResumedRunsMatchTheGoldens) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (const uint64_t seed : {7ULL, 8ULL}) {
    const std::vector<RequestRecord> trace = ShapeTrace(seed);
    for (const Shape shape : {Shape::kZoneOutages, Shape::kBreaker}) {
      const FleetSimConfig cfg = ShapeConfig(shape, seed);

      FleetEngine sliced(cfg);
      sliced.Start(trace, billing);
      for (MicroSecs t = 0; !sliced.done(); t += 37 * kSec) {
        sliced.AdvanceUntil(t);
      }
      ExpectGolden(shape, seed, sliced.Finish(), "sliced");

      FleetEngine first(cfg);
      first.Start(trace, billing);
      first.AdvanceUntil(kWindow / 2);
      ASSERT_FALSE(first.done());
      JsonWriter w;
      first.SaveState(w);
      FleetEngine resumed(cfg);
      resumed.Resume(trace, billing, ParseJson(w.str()));
      resumed.RunToEnd();
      ExpectGolden(shape, seed, resumed.Finish(), "resumed");
    }
  }
}

// --- The observed shape ---
//
// Paths no golden above reaches: platform execution timeouts and an
// attached 3-zone network whose zone 0 goes dark mid-run, with crashes, host
// faults and the client breaker on. The run carries a span sink and a time series, pinned
// as digests over every span field and every window. It runs straight and
// in slices, not resumed: a network-attached run does not checkpoint.

NetworkModelConfig ObservedNetwork() {
  NetworkModelConfig ncfg;
  ncfg.topology.zones = 3;
  ncfg.topology.zones_per_region = 3;
  ncfg.payload.request_mean_kb = 16.0;
  ncfg.payload.response_mean_kb = 64.0;
  ncfg.class_a_ops_per_request = 1;
  ncfg.class_b_ops_per_request = 2;
  ncfg.outages.push_back(NetOutage{/*zone=*/0, /*start=*/300 * kSec, /*duration=*/300 * kSec});
  return ncfg;
}

// FleetResult's fields, then the span and window digests.
golden::Fields RenderObserved(const FleetResult& r, const SpanCollector& spans,
                              const TimeSeries& series) {
  golden::Fields f = Render(r);
  f.emplace_back("trace_spans", std::to_string(spans.spans().size()));
  f.emplace_back("span_digest", Hex(golden::SpanDigest(spans.spans())));
  f.emplace_back("windows", std::to_string(series.window_count()));
  f.emplace_back("window_digest", Hex(golden::WindowDigest(series)));
  return f;
}

// Runs the observed shape, in `slice`-wide AdvanceUntil steps when `slice`
// is positive, and checks it against its golden.
void ExpectObservedGolden(uint64_t seed, MicroSecs slice, const char* how) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const std::vector<RequestRecord> trace = ShapeTrace(seed);
  NetworkModel net(ObservedNetwork(), MakeNetworkPricing(Platform::kAwsLambda), seed);
  SpanCollector spans;
  TimeSeries series(60 * kSec);
  FleetSimConfig cfg = ShapeConfig(Shape::kObserved, seed);
  cfg.network = &net;
  cfg.trace_sink = &spans;
  cfg.timeseries = &series;
  FleetEngine engine(cfg);
  engine.Start(trace, billing);
  if (slice > 0) {
    for (MicroSecs t = 0; !engine.done(); t += slice) {
      engine.AdvanceUntil(t);
    }
  }
  engine.RunToEnd();
  ExpectGolden(Shape::kObserved, seed, RenderObserved(engine.Finish(), spans, series), how);
}

TEST(FleetGolden, ObservedShapeMatchesStraightAndSliced) {
  for (const uint64_t seed : {7ULL, 8ULL}) {
    ExpectObservedGolden(seed, 0, "straight");
    ExpectObservedGolden(seed, 41 * kSec, "sliced");
  }
}

TEST(FleetGolden, ObservedShapeExercisesItsMechanisms) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const std::vector<RequestRecord> trace = ShapeTrace(7);
  NetworkModel net(ObservedNetwork(), MakeNetworkPricing(Platform::kAwsLambda), 7);
  FleetSimConfig cfg = ShapeConfig(Shape::kObserved, 7);
  cfg.network = &net;
  const FleetResult r = SimulateFleet(trace, billing, cfg);
  EXPECT_GT(r.timeout_attempts, 0);
  EXPECT_GT(r.crash_attempts, 0);
  EXPECT_GT(r.circuit_open_attempts, 0);
  EXPECT_GT(r.breaker_trips, 0);
  EXPECT_GT(r.host_fault_attempt_kills, 0);
  EXPECT_GT(r.net_transfers, 0);
  EXPECT_GT(r.network_detour_usd, 0.0);
  EXPECT_GT(r.retries_exhausted, 0);
}

}  // namespace
}  // namespace faascost
