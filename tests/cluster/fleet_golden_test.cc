// Field-level FleetResult goldens: four fleet shapes (host chaos, zone
// outages, sandbox cap + admission queue + breaker, sandbox cap with 429s)
// at seeds 7 and 8. Counts are pinned as integers, every double (USD,
// seconds, margin) as its IEEE-754 bit pattern, and the per-request e2e
// latencies and every SandboxSpan as FNV digests over all their fields.
// A fifth, observed shape (execution timeouts, sheds that are not retried
// and a 3-zone network with an outage) also pins digests over every emitted
// span and every time-series window.
//
// The values were computed by the engine that preloaded every arrival into
// its heap and swept every sandbox a function ever created on each arrival.
// The O(live state) engine must reproduce them exactly: straight through,
// in AdvanceUntil slices, and across a mid-run checkpoint/resume. A failure
// prints the actual table, ready to paste if a change is meant to move it.
// One change did: since the fleet counts failures under the platform's
// taxonomy (AttemptFailures), timeout_attempts includes the queue timeouts,
// which raised it by queue_timeout_attempts in the admission and observed
// rows.

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

enum class Shape { kHostChaos, kZoneOutages, kAdmissionBreaker, kCap429, kObserved };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kHostChaos:
      return "kHostChaos";
    case Shape::kZoneOutages:
      return "kZoneOutages";
    case Shape::kAdmissionBreaker:
      return "kAdmissionBreaker";
    case Shape::kCap429:
      return "kCap429";
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
    case Shape::kAdmissionBreaker:
      cfg.failure_rate = 0.2;
      cfg.max_sandboxes_per_function = 2;
      cfg.admission.enabled = true;
      cfg.admission.queue_depth = 2;
      cfg.admission.queue_timeout = 500 * kMicrosPerMilli;
      cfg.retry.breaker_threshold = 3;
      cfg.retry.breaker_cooldown = 5 * kSec;
      break;
    case Shape::kCap429:
      cfg.max_sandboxes_per_function = 1;
      break;
    case Shape::kObserved:
      cfg.failure_rate = 0.05;
      cfg.max_exec_duration = 2 * kSec;
      cfg.max_sandboxes_per_function = 2;
      cfg.admission.enabled = true;
      cfg.admission.queue_depth = 1;
      cfg.admission.queue_timeout = 400 * kMicrosPerMilli;
      cfg.retry.retry_rejected = false;
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

// Hot and slow enough that the capped shapes contend: the most popular of
// 40 functions sees about one ~1 s request per second.
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
      {"queued_attempts", n(r.queued_attempts)},
      {"queue_wait_seconds", Bits(r.queue_wait_seconds)},
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
     "queued_attempts=0 queue_wait_seconds=0x0000000000000000 host_fault_attempt_kills=53 "
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
     "queued_attempts=0 queue_wait_seconds=0x0000000000000000 host_fault_attempt_kills=19 "
     "host_fault_sandbox_kills=130 drain_survivals=0 e2e_latency=0x0be8ad60e02e2b30 "
     "sandbox_seconds=0x40f419ede38c9752 busy_seconds=0x40c2e7fc787ce961 idle_seconds=0x40f1bcee547cfa2b "
     "peak_servers=2 revenue=0x3fda70e6a996c459 fee_revenue=0x3f5a46d323281dc0 "
     "hardware_cost=0x3fed4e0315ebed93 margin=0xbff3773da8c18ff9 spans=0x9c6c9e424e46dbcb "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kAdmissionBreaker, 7,
     "requests=8000 attempts=11640 cold_starts=1959 "
     "sandboxes=1959 failed_attempts=4600 crash_attempts=1839 "
     "timeout_attempts=465 init_failure_attempts=0 retries=3640 "
     "retries_exhausted=960 successes=7040 rejected_attempts=29 "
     "queue_timeout_attempts=465 circuit_open_attempts=2267 breaker_trips=197 "
     "queued_attempts=866 queue_wait_seconds=0x40747a5b4edb2f69 host_fault_attempt_kills=0 "
     "host_fault_sandbox_kills=0 drain_survivals=0 e2e_latency=0x87e3ce5c174d60f5 "
     "sandbox_seconds=0x40ef2513a48301aa busy_seconds=0x40c2f238c3dab5ca idle_seconds=0x40ea6885738c5439 "
     "peak_servers=2 revenue=0x3fdad8a70e08f814 fee_revenue=0x3f5e9e50b87f3001 "
     "hardware_cost=0x3fe65e211538ac55 margin=0xbfe552c177b6baca spans=0x87a23a61c01f58e5 "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kCap429, 7,
     "requests=8000 attempts=12209 cold_starts=62 "
     "sandboxes=62 failed_attempts=6121 crash_attempts=0 "
     "timeout_attempts=0 init_failure_attempts=0 retries=4209 "
     "retries_exhausted=1912 successes=6088 rejected_attempts=6121 "
     "queue_timeout_attempts=0 circuit_open_attempts=0 breaker_trips=0 "
     "queued_attempts=0 queue_wait_seconds=0x0000000000000000 host_fault_attempt_kills=0 "
     "host_fault_sandbox_kills=0 drain_survivals=0 e2e_latency=0x4616f15062e0610f "
     "sandbox_seconds=0x40e80765634dad34 busy_seconds=0x40b9ea578bbd3804 idle_seconds=0x40e4ca1a71d6062f "
     "peak_servers=1 revenue=0x3fd26be9026395c4 fee_revenue=0x3f53f2fc0b7eb769 "
     "hardware_cost=0x3fe0f784dc7218e9 margin=0xbfeaf23d5b9668ab spans=0xaca802cff231a97b "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kHostChaos, 8,
     "requests=8000 attempts=8041 cold_starts=654 "
     "sandboxes=654 failed_attempts=41 crash_attempts=39 "
     "timeout_attempts=0 init_failure_attempts=2 retries=41 "
     "retries_exhausted=0 successes=8000 rejected_attempts=0 "
     "queue_timeout_attempts=0 circuit_open_attempts=0 breaker_trips=0 "
     "queued_attempts=0 queue_wait_seconds=0x0000000000000000 host_fault_attempt_kills=41 "
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
     "queued_attempts=0 queue_wait_seconds=0x0000000000000000 host_fault_attempt_kills=17 "
     "host_fault_sandbox_kills=139 drain_survivals=1 e2e_latency=0x0785ee4d85c4c80c "
     "sandbox_seconds=0x40f409d5d2f2b670 busy_seconds=0x40c25795cd67fd3e idle_seconds=0x40f1bee31945b6bf "
     "peak_servers=2 revenue=0x3fdb58746bdaf5ad fee_revenue=0x3f5a4525a3fe71f6 "
     "hardware_cost=0x3fee6072f4f12950 margin=0xbff38c137652817c spans=0x4b0f4e4fc863003a "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kAdmissionBreaker, 8,
     "requests=8000 attempts=11164 cold_starts=1918 "
     "sandboxes=1918 failed_attempts=3912 crash_attempts=1777 "
     "timeout_attempts=387 init_failure_attempts=0 retries=3164 "
     "retries_exhausted=748 successes=7252 rejected_attempts=37 "
     "queue_timeout_attempts=387 circuit_open_attempts=1711 breaker_trips=175 "
     "queued_attempts=805 queue_wait_seconds=0x4071ec867f0aa21b host_fault_attempt_kills=0 "
     "host_fault_sandbox_kills=0 drain_survivals=0 e2e_latency=0xd7d1e4891120254f "
     "sandbox_seconds=0x40f0047a094a2b9b busy_seconds=0x40c393df7a7008aa idle_seconds=0x40eb23fc33f8551f "
     "peak_servers=2 revenue=0x3fdc263a750020f2 fee_revenue=0x3f5edab69a5b5869 "
     "hardware_cost=0x3fe7a1253cabba44 margin=0xbfe5b944f16ba8d5 spans=0xf03e671ff5d3b765 "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kCap429, 8,
     "requests=8000 attempts=11987 cold_starts=63 "
     "sandboxes=63 failed_attempts=5771 crash_attempts=0 "
     "timeout_attempts=0 init_failure_attempts=0 retries=3987 "
     "retries_exhausted=1784 successes=6216 rejected_attempts=5771 "
     "queue_timeout_attempts=0 circuit_open_attempts=0 breaker_trips=0 "
     "queued_attempts=0 queue_wait_seconds=0x0000000000000000 host_fault_attempt_kills=0 "
     "host_fault_sandbox_kills=0 drain_survivals=0 e2e_latency=0x593790b2c086ec74 "
     "sandbox_seconds=0x40e81277382c2bd9 busy_seconds=0x40baf74f52b90a75 idle_seconds=0x40e4b38d4dd50a88 "
     "peak_servers=1 revenue=0x3fd3104e9537e2e5 fee_revenue=0x3f545e5bd5e9a9e9 "
     "hardware_cost=0x3fe132870e5d5bcb margin=0xbfe9bc03ea8cd565 spans=0x7b0d34cc901137cb "
     "net_transfers=0 net_bytes=0 network_transfer_usd=0x0000000000000000 "
     "network_ops_usd=0x0000000000000000 network_detour_usd=0x0000000000000000 network_bill_transfers=0 "
     "network_bill_usd=0x0000000000000000 "},
    {Shape::kObserved, 7,
     "requests=8000 attempts=11719 cold_starts=649 "
     "sandboxes=649 failed_attempts=5436 crash_attempts=387 "
     "timeout_attempts=2591 init_failure_attempts=0 retries=3719 "
     "retries_exhausted=1717 successes=6283 rejected_attempts=76 "
     "queue_timeout_attempts=308 circuit_open_attempts=2382 breaker_trips=283 "
     "queued_attempts=699 queue_wait_seconds=0x40681a4152b0a725 host_fault_attempt_kills=6 "
     "host_fault_sandbox_kills=112 drain_survivals=1 e2e_latency=0x7bbc2424e3252f7f "
     "sandbox_seconds=0x40f0618f5000c94e busy_seconds=0x40bfe689aac53b02 idle_seconds=0x40ecc64d6aa8eb47 "
     "peak_servers=2 revenue=0x3fd63e44ca43554e fee_revenue=0x3f5e58b09b3dd6c2 "
     "hardware_cost=0x3fe765df37f5d3dc margin=0xbff1a94439327ca8 spans=0xf0cce73a96773c8f "
     "net_transfers=17906 net_bytes=558924623 network_transfer_usd=0x3f6af50268f5c3c6 "
     "network_ops_usd=0x3faa963a69885af7 network_detour_usd=0x3f41c84b3d70a3d5 network_bill_transfers=17906 "
     "network_bill_usd=0x3fac458a9017b733 trace_spans=35033 span_digest=0x40705e2a87322976 "
     "windows=21 window_digest=0x446c1841e6658ec4 "},
    {Shape::kObserved, 8,
     "requests=8000 attempts=11280 cold_starts=654 "
     "sandboxes=654 failed_attempts=4771 crash_attempts=394 "
     "timeout_attempts=2722 init_failure_attempts=0 retries=3280 "
     "retries_exhausted=1491 successes=6509 rejected_attempts=93 "
     "queue_timeout_attempts=275 circuit_open_attempts=1562 breaker_trips=264 "
     "queued_attempts=689 queue_wait_seconds=0x4066fb69dd7ecbe2 host_fault_attempt_kills=13 "
     "host_fault_sandbox_kills=85 drain_survivals=0 e2e_latency=0x553af4d314c67a57 "
     "sandbox_seconds=0x40f09fa7e7e414e7 busy_seconds=0x40c0b83c351deefa idle_seconds=0x40ed1140c280ae0e "
     "peak_servers=2 revenue=0x3fd792ab0eb0a097 fee_revenue=0x3f5f8a0902ddf85e "
     "hardware_cost=0x3fe89f5b353e66f8 margin=0xbff16cbdc6e539a7 spans=0x4a98e06fa88306cf "
     "net_transfers=18700 net_bytes=590169247 network_transfer_usd=0x3f6eb74c628f5de2 "
     "network_ops_usd=0x3fabc408d8ec96ef network_detour_usd=0x3f418ee747ae147b network_bill_transfers=18700 "
     "network_bill_usd=0x3fadaf7d9f158ccd trace_spans=34982 span_digest=0xf307984df882e97e "
     "windows=21 window_digest=0x2473beebda88ea52 "},
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

constexpr Shape kShapes[] = {Shape::kHostChaos, Shape::kZoneOutages,
                             Shape::kAdmissionBreaker, Shape::kCap429};

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
  const FleetResult admission =
      SimulateFleet(trace, billing, ShapeConfig(Shape::kAdmissionBreaker, 7));
  EXPECT_GT(admission.queued_attempts, 0);
  EXPECT_GT(admission.breaker_trips, 0);
  EXPECT_GT(admission.circuit_open_attempts, 0);
  const FleetResult capped = SimulateFleet(trace, billing, ShapeConfig(Shape::kCap429, 7));
  EXPECT_GT(capped.rejected_attempts, 0);
  EXPECT_GT(capped.retries, 0);
  // One sandbox per function at a time and no faults: every cold start
  // past the first per function followed a keep-alive expiry.
  EXPECT_GT(capped.cold_starts, 40);
}

// Slicing the run and restoring it from a mid-run checkpoint reach the same
// fields: the trace cursor, the heap and the live pools are the whole state.
TEST(FleetGolden, SlicedAndResumedRunsMatchTheGoldens) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (const uint64_t seed : {7ULL, 8ULL}) {
    const std::vector<RequestRecord> trace = ShapeTrace(seed);
    for (const Shape shape : {Shape::kZoneOutages, Shape::kAdmissionBreaker}) {
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
// Paths no golden above reaches: platform execution timeouts, sheds from a
// full admission queue with `retry_rejected = false`, and an attached
// 3-zone network whose zone 0 goes dark mid-run, with host faults and the
// client breaker on. The run carries a span sink and a time series, pinned
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
  EXPECT_GT(r.rejected_attempts, 0);
  EXPECT_GT(r.queue_timeout_attempts, 0);
  EXPECT_GT(r.circuit_open_attempts, 0);
  EXPECT_GT(r.host_fault_attempt_kills, 0);
  EXPECT_GT(r.net_transfers, 0);
  EXPECT_GT(r.network_detour_usd, 0.0);
  // Sheds are not retried, so some requests end on their first rejection.
  EXPECT_GT(r.retries_exhausted, 0);
}

}  // namespace
}  // namespace faascost
