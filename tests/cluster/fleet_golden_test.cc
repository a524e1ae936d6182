// Field-level FleetResult goldens: four fleet shapes (host chaos, zone
// outages, sandbox cap + admission queue + breaker, sandbox cap with 429s)
// at seeds 7 and 8. Counts are pinned as integers, every double (USD,
// seconds, margin) as its IEEE-754 bit pattern, and the per-request e2e
// latencies and every SandboxSpan as FNV digests over all their fields.
//
// The values were computed by the engine that preloaded every arrival into
// its heap and swept every sandbox a function ever created on each arrival.
// The O(live state) engine must reproduce them exactly: straight through,
// in AdvanceUntil slices, and across a mid-run checkpoint/resume. A failure
// prints the actual table, ready to paste if a change is meant to move it.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/digest.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kWindow = 1'200 * kSec;

enum class Shape { kHostChaos, kZoneOutages, kAdmissionBreaker, kCap429 };

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

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Bits(double v) { return Hex(std::bit_cast<uint64_t>(v)); }

// Every FleetResult field, as (name, rendered value) in declaration order.
std::vector<std::pair<std::string, std::string>> Render(const FleetResult& r) {
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
     "timeout_attempts=0 init_failure_attempts=0 retries=3640 "
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
     "timeout_attempts=0 init_failure_attempts=0 retries=3164 "
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
};
// clang-format on

std::string Pasteable(Shape shape, uint64_t seed, const FleetResult& r) {
  std::ostringstream out;
  out << "    {Shape::" << ShapeName(shape) << ", " << seed << ",\n     \"";
  int col = 0;
  for (const auto& [name, value] : Render(r)) {
    if (col == 3) {
      out << "\"\n     \"";
      col = 0;
    }
    out << name << "=" << value << " ";
    ++col;
  }
  out << "\"},\n";
  return out.str();
}

void ExpectGolden(Shape shape, uint64_t seed, const FleetResult& r, const char* how) {
  const Golden* golden = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.shape == shape && g.seed == seed) {
      golden = &g;
    }
  }
  ASSERT_NE(golden, nullptr) << ShapeName(shape) << " seed " << seed
                             << " has no golden; actual:\n"
                             << Pasteable(shape, seed, r);
  std::istringstream in(golden->fields);
  std::vector<std::pair<std::string, std::string>> want;
  for (std::string pair; in >> pair;) {
    const size_t eq = pair.find('=');
    want.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
  }
  const auto got = Render(r);
  ASSERT_EQ(got.size(), want.size()) << "golden field list is stale";
  bool all_equal = true;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second)
        << ShapeName(shape) << " seed " << seed << " (" << how << "): " << got[i].first;
    all_equal = all_equal && got[i].second == want[i].second;
  }
  if (!all_equal) {
    ADD_FAILURE() << "actual:\n" << Pasteable(shape, seed, r);
  }
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

}  // namespace
}  // namespace faascost
