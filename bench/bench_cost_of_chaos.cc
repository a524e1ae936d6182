// Cost of chaos: what fleet-level failures and overload protection do to
// availability, tail latency, and the bill.
//
// Section A runs the fleet simulator over the same synthetic trace with host
// fault injection at decreasing MTBFs. A host loss crashes every resident
// attempt and destroys every resident sandbox, so the survivors' retries
// stampede into cold starts — availability, p99 end-to-end latency and cost
// per successful request are reported as deltas against the healthy run,
// with and without the client-side circuit breaker.
//
// Section B overloads the event-driven platform simulator (AWS preset capped
// at a few instances) and compares bounded-admission-queue shed policies
// (reject-newest vs reject-oldest), again with the breaker on and off. This
// is the quantified version of "graceful degradation": queues trade latency
// for availability, shedding trades availability for latency, and the
// breaker trades both for a smaller bill.
//
// Everything is seeded; two runs of this binary print identical bytes.
// Pass --json for machine-readable output.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/core/observe.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

double P99Ms(std::vector<MicroSecs> latencies) {
  if (latencies.empty()) {
    return 0.0;
  }
  std::sort(latencies.begin(), latencies.end());
  const size_t idx = (latencies.size() * 99 + 99) / 100 - 1;
  return static_cast<double>(latencies[std::min(idx, latencies.size() - 1)]) /
         static_cast<double>(kMicrosPerMilli);
}

// ---------------------------------------------------------------------------
// Section A: host failures in the fleet simulator.
// ---------------------------------------------------------------------------

struct FleetChaosRow {
  std::string label;
  double mtbf_seconds = 0.0;
  bool breaker = false;
  double availability = 0.0;
  double p99_ms = 0.0;
  double cost_per_success = 0.0;
  int64_t cold_starts = 0;
  int64_t attempt_kills = 0;
  int64_t sandbox_kills = 0;
  int64_t drain_survivals = 0;
  int64_t breaker_trips = 0;
};

FleetChaosRow RunFleet(const std::vector<RequestRecord>& trace, const BillingModel& billing,
                       const std::string& label, double mtbf_seconds, bool breaker) {
  FleetSimConfig cfg;
  cfg.retry.max_attempts = 3;
  cfg.fault_seed = 4242;
  if (mtbf_seconds > 0.0) {
    cfg.host_faults.hosts = 16;
    cfg.host_faults.mtbf_seconds = mtbf_seconds;
    cfg.host_faults.mttr_seconds = 120.0;
    cfg.host_faults.graceful_fraction = 0.3;
  }
  if (breaker) {
    cfg.retry.breaker_threshold = 5;
    cfg.retry.breaker_cooldown = 5 * kMicrosPerSec;
  }
  const FleetResult res = SimulateFleet(trace, billing, cfg);
  FleetChaosRow row;
  row.label = label;
  row.mtbf_seconds = mtbf_seconds;
  row.breaker = breaker;
  row.availability = res.requests > 0
                         ? static_cast<double>(res.successes) / static_cast<double>(res.requests)
                         : 0.0;
  row.p99_ms = P99Ms(res.e2e_latency);
  row.cost_per_success =
      res.successes > 0 ? res.revenue / static_cast<double>(res.successes) : 0.0;
  row.cold_starts = res.cold_starts;
  row.attempt_kills = res.host_fault_attempt_kills;
  row.sandbox_kills = res.host_fault_sandbox_kills;
  row.drain_survivals = res.drain_survivals;
  row.breaker_trips = res.breaker_trips;
  return row;
}

std::vector<FleetChaosRow> FleetHostFaultSection(bool json) {
  TraceGenConfig tcfg;
  tcfg.num_requests = 20'000;
  tcfg.num_functions = 200;
  tcfg.window = 3'600LL * kMicrosPerSec;
  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, 7).Generate();
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  std::vector<FleetChaosRow> rows;
  rows.push_back(RunFleet(trace, billing, "healthy", 0.0, false));
  for (const bool breaker : {false, true}) {
    for (const double mtbf : {14'400.0, 3'600.0, 900.0}) {
      char label[64];
      std::snprintf(label, sizeof(label), "MTBF %.0fm%s", mtbf / 60.0,
                    breaker ? " +breaker" : "");
      rows.push_back(RunFleet(trace, billing, label, mtbf, breaker));
    }
  }

  const FleetChaosRow& healthy = rows.front();
  if (!json) {
    PrintHeader("Host failures across a 16-host fleet (20k reqs / 200 fns / 1h, "
                "AWS billing, 3 attempts, MTTR 120s, 30% graceful)");
    TextTable table({"scenario", "availability", "p99 e2e ms", "$/success",
                     "d$/success", "cold starts", "attempt kills", "sandbox kills",
                     "drain ok", "trips"});
    for (const FleetChaosRow& r : rows) {
      const double delta = healthy.cost_per_success > 0.0
                               ? r.cost_per_success / healthy.cost_per_success - 1.0
                               : 0.0;
      table.AddRow({r.label, FormatPercent(r.availability, 3), FormatDouble(r.p99_ms, 1),
                    FormatSci(r.cost_per_success, 3),
                    FormatSignedPercent(delta, 2),
                    FormatDouble(static_cast<double>(r.cold_starts), 0),
                    FormatDouble(static_cast<double>(r.attempt_kills), 0),
                    FormatDouble(static_cast<double>(r.sandbox_kills), 0),
                    FormatDouble(static_cast<double>(r.drain_survivals), 0),
                    FormatDouble(static_cast<double>(r.breaker_trips), 0)});
    }
    std::printf("%s", table.Render().c_str());
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Section B: overload admission control in the platform simulator.
// ---------------------------------------------------------------------------

struct OverloadRow {
  std::string label;
  std::string policy;  // "none", "reject_newest", "reject_oldest".
  bool breaker = false;
  double availability = 0.0;
  double p99_ms = 0.0;
  double cost_per_success = 0.0;
  int64_t shed = 0;
  int64_t queue_timeouts = 0;
  int64_t circuit_open = 0;
  int64_t breaker_trips = 0;
};

OverloadRow RunOverload(const std::string& label, bool overloaded, ShedPolicy policy,
                        bool breaker) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.retry.max_attempts = 3;
  if (overloaded) {
    cfg.max_instances = 4;  // Capacity ~25 rps of PyAES vs 40 rps offered.
    cfg.admission.enabled = true;
    // A 32-deep queue drains in ~1.3 s at this capacity, so the 1 s wait
    // budget sheds from the head too: both loss mechanisms show up.
    cfg.admission.queue_depth = 32;
    cfg.admission.queue_timeout = 1 * kMicrosPerSec;
    cfg.admission.shed = policy;
  }
  if (breaker) {
    cfg.retry.breaker_threshold = 5;
    cfg.retry.breaker_cooldown = 5 * kMicrosPerSec;
  }
  PlatformSim sim(cfg, /*seed=*/31);
  const PlatformSimResult res =
      sim.Run(UniformArrivals(40.0, 60 * kMicrosPerSec), PyAesWorkload());

  const Usd total =
      PricePlatformRun(res, cfg, MakeBillingModel(Platform::kAwsLambda)).billed_usd;
  OverloadRow row;
  row.label = label;
  row.policy = overloaded ? ShedPolicyName(policy) : "none";
  row.breaker = breaker;
  row.availability = res.requests.empty()
                         ? 0.0
                         : static_cast<double>(res.successes) /
                               static_cast<double>(res.requests.size());
  std::vector<MicroSecs> latencies;
  latencies.reserve(res.requests.size());
  for (const auto& req : res.requests) {
    latencies.push_back(req.e2e_latency);
  }
  row.p99_ms = P99Ms(std::move(latencies));
  row.cost_per_success =
      res.successes > 0 ? total / static_cast<double>(res.successes) : 0.0;
  row.shed = res.shed_attempts;
  row.queue_timeouts = res.queue_timeout_attempts;
  row.circuit_open = res.circuit_open_attempts;
  row.breaker_trips = res.breaker_trips;
  return row;
}

std::vector<OverloadRow> OverloadSection(bool json) {
  std::vector<OverloadRow> rows;
  rows.push_back(RunOverload("healthy (uncapped)", false, ShedPolicy::kRejectNewest, false));
  for (const bool breaker : {false, true}) {
    for (const ShedPolicy policy : {ShedPolicy::kRejectNewest, ShedPolicy::kRejectOldest}) {
      std::string label = std::string(ShedPolicyName(policy));
      if (breaker) {
        label += " +breaker";
      }
      rows.push_back(RunOverload(label, true, policy, breaker));
    }
  }

  const OverloadRow& healthy = rows.front();
  if (!json) {
    PrintHeader("Overload admission control (AWS preset, 4 instances, 40 rps "
                "offered, queue depth 32 / timeout 1s, 3 attempts)");
    TextTable table({"scenario", "availability", "p99 e2e ms", "$/success", "d$/success",
                     "shed", "queue timeouts", "circuit open", "trips"});
    for (const OverloadRow& r : rows) {
      const double delta = healthy.cost_per_success > 0.0
                               ? r.cost_per_success / healthy.cost_per_success - 1.0
                               : 0.0;
      table.AddRow({r.label, FormatPercent(r.availability, 3), FormatDouble(r.p99_ms, 1),
                    FormatSci(r.cost_per_success, 3),
                    FormatSignedPercent(delta, 2),
                    FormatDouble(static_cast<double>(r.shed), 0),
                    FormatDouble(static_cast<double>(r.queue_timeouts), 0),
                    FormatDouble(static_cast<double>(r.circuit_open), 0),
                    FormatDouble(static_cast<double>(r.breaker_trips), 0)});
    }
    std::printf("%s", table.Render().c_str());
  }
  return rows;
}

}  // namespace
}  // namespace faascost

int main(int argc, char** argv) {
  using namespace faascost;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    }
  }
  const auto fleet = FleetHostFaultSection(json);
  const auto overload = OverloadSection(json);
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("fleet_host_faults");
    w.BeginArray();
    for (const FleetChaosRow& r : fleet) {
      w.BeginObject();
      w.KV("scenario", r.label);
      w.KV("mtbf_seconds", r.mtbf_seconds);
      w.KV("breaker", r.breaker);
      w.KV("availability", r.availability);
      w.KV("p99_e2e_ms", r.p99_ms);
      w.KV("cost_per_success", r.cost_per_success);
      w.KV("cold_starts", r.cold_starts);
      w.KV("attempt_kills", r.attempt_kills);
      w.KV("sandbox_kills", r.sandbox_kills);
      w.KV("drain_survivals", r.drain_survivals);
      w.KV("breaker_trips", r.breaker_trips);
      w.EndObject();
    }
    w.EndArray();
    w.Key("platform_overload");
    w.BeginArray();
    for (const OverloadRow& r : overload) {
      w.BeginObject();
      w.KV("scenario", r.label);
      w.KV("shed_policy", r.policy);
      w.KV("breaker", r.breaker);
      w.KV("availability", r.availability);
      w.KV("p99_e2e_ms", r.p99_ms);
      w.KV("cost_per_success", r.cost_per_success);
      w.KV("shed", r.shed);
      w.KV("queue_timeouts", r.queue_timeouts);
      w.KV("circuit_open", r.circuit_open);
      w.KV("breaker_trips", r.breaker_trips);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf(
      "\nReading: host failures cost twice — killed attempts are billed to the\n"
      "abort point, and the cold-start stampede after each host loss re-bills\n"
      "initialization. Under overload, reject-oldest favors fresh requests'\n"
      "latency while reject-newest preserves FIFO fairness; the breaker stops\n"
      "paying for retries that were going to fail anyway, trading availability\n"
      "during the brownout for a smaller bill.\n");
  return 0;
}
