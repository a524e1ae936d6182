// Fleet-level chaos: the host fault model's deterministic schedule, zonal
// outages and graceful drains; admission control and the client circuit
// breaker in the fleet simulator; and — the non-negotiable — zero-chaos
// configurations reproducing the pre-chaos goldens bit-identically.

#include "src/cluster/host_faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/rng.h"
#include "src/common/stream_registry.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kMs = kMicrosPerMilli;

std::vector<RequestRecord> SmallTrace() {
  TraceGenConfig cfg;
  cfg.num_requests = 20'000;
  cfg.num_functions = 200;
  cfg.window = 3'600LL * kSec;
  return TraceGenerator(cfg, 7).Generate();
}

HostFaultModelConfig CrashyConfig() {
  HostFaultModelConfig cfg;
  cfg.hosts = 8;
  cfg.mtbf_seconds = 600.0;
  cfg.mttr_seconds = 60.0;
  return cfg;
}

// --- Config validation ---

TEST(HostFaultConfig, ValidDefaultsAndDisabled) {
  const HostFaultModelConfig cfg;
  EXPECT_TRUE(cfg.Validate().empty());
  EXPECT_FALSE(cfg.enabled());
  // Hosts alone do not enable the model; a failure source must be set too.
  HostFaultModelConfig hosts_only;
  hosts_only.hosts = 16;
  EXPECT_FALSE(hosts_only.enabled());
  EXPECT_TRUE(CrashyConfig().enabled());
}

TEST(HostFaultConfig, RejectsNonsense) {
  HostFaultModelConfig cfg;
  cfg.hosts = -1;
  cfg.mtbf_seconds = -3600.0;
  cfg.mttr_seconds = -1.0;
  cfg.zones = 0;
  cfg.zone_outage_mtbf_seconds = -1.0;
  cfg.graceful_fraction = 1.5;
  cfg.drain_deadline = -1;
  EXPECT_EQ(cfg.Validate().size(), 7u);
}

TEST(HostFaultConfig, RejectsMtbfNotExceedingMttr) {
  HostFaultModelConfig cfg = CrashyConfig();
  cfg.mtbf_seconds = 60.0;
  cfg.mttr_seconds = 120.0;
  const auto errors = cfg.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("mtbf_seconds must exceed mttr_seconds"), std::string::npos);
}

TEST(FleetChaosConfig, HostFaultErrorsSurfaceThroughFleetValidate) {
  FleetSimConfig cfg;
  cfg.host_faults.hosts = 4;
  cfg.host_faults.mtbf_seconds = -5.0;
  const auto errors = cfg.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("host_faults:"), std::string::npos);
  EXPECT_THROW(SimulateFleet({}, MakeBillingModel(Platform::kAwsLambda), cfg),
               std::invalid_argument);
}

TEST(FleetChaosConfig, AdmissionNeedsQueueDepthAndSandboxCap) {
  FleetSimConfig cfg;
  cfg.max_sandboxes_per_function = 2;
  cfg.admission.enabled = true;
  cfg.admission.queue_depth = 0;  // Zero-depth queue is a config error.
  EXPECT_FALSE(cfg.Validate().empty());

  cfg.admission.queue_depth = 8;
  EXPECT_TRUE(cfg.Validate().empty());

  // Admission control without a sandbox cap has nothing to queue against.
  cfg.max_sandboxes_per_function = 0;
  EXPECT_FALSE(cfg.Validate().empty());

  FleetSimConfig negative_cap;
  negative_cap.max_sandboxes_per_function = -1;
  EXPECT_FALSE(negative_cap.Validate().empty());

  FleetSimConfig negative_timeout;
  negative_timeout.max_sandboxes_per_function = 1;
  negative_timeout.admission.enabled = true;
  negative_timeout.admission.queue_depth = 8;
  negative_timeout.admission.queue_timeout = -1;
  EXPECT_FALSE(negative_timeout.Validate().empty());
}

// --- Deterministic failure schedules ---

TEST(HostFaultSchedule, QueryOrderDoesNotChangeTheSchedule) {
  const HostFaultModelConfig cfg = CrashyConfig();
  HostFaultModel forward(cfg, 99);
  HostFaultModel backward(cfg, 99);
  const MicroSecs horizon = 3'600 * kSec;
  const MicroSecs step = 100 * kSec;

  std::vector<std::pair<int, MicroSecs>> queries;
  for (int h = 0; h < cfg.hosts; ++h) {
    for (MicroSecs t = 0; t < horizon; t += step) {
      queries.push_back({h, t});
    }
  }
  std::vector<std::optional<HostFailureEvent>> a;
  for (const auto& [h, t] : queries) {
    a.push_back(forward.FirstFailureIn(h, t, t + step));
  }
  // Same queries in reverse order against a fresh model: lazily generated
  // schedules must not depend on what was asked first.
  std::vector<std::optional<HostFailureEvent>> b(queries.size());
  for (size_t i = queries.size(); i-- > 0;) {
    const auto& [h, t] = queries[i];
    b[i] = backward.FirstFailureIn(h, t, t + step);
  }
  int failures_seen = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(a[i].has_value(), b[i].has_value()) << i;
    if (a[i].has_value()) {
      EXPECT_EQ(a[i]->time, b[i]->time);
      EXPECT_EQ(a[i]->graceful, b[i]->graceful);
      ++failures_seen;
    }
  }
  // 8 hosts, 1 h, MTBF 600 s: dozens of failures expected.
  EXPECT_GT(failures_seen, 10);
}

TEST(HostFaultSchedule, SeedsChangeTheSchedule) {
  const HostFaultModelConfig cfg = CrashyConfig();
  HostFaultModel a(cfg, 1);
  HostFaultModel b(cfg, 2);
  const auto fa = a.FirstFailureIn(0, 0, 3'600 * kSec);
  const auto fb = b.FirstFailureIn(0, 0, 3'600 * kSec);
  ASSERT_TRUE(fa.has_value());
  ASSERT_TRUE(fb.has_value());
  EXPECT_NE(fa->time, fb->time);
}

TEST(HostFaultSchedule, HostIsDownForMttrAfterFailure) {
  HostFaultModelConfig cfg = CrashyConfig();
  HostFaultModel model(cfg, 7);
  const auto first = model.FirstFailureIn(3, 0, 3'600 * kSec);
  ASSERT_TRUE(first.has_value());
  const MicroSecs mttr = static_cast<MicroSecs>(cfg.mttr_seconds) * kSec;
  EXPECT_TRUE(model.IsDown(3, first->time + 1));
  EXPECT_TRUE(model.IsDown(3, first->time + mttr / 2));
  EXPECT_FALSE(model.IsDown(3, first->time + mttr + kSec));
  EXPECT_FALSE(model.IsDown(3, first->time - 1));
}

TEST(HostFaultSchedule, PickHostAvoidsDownHosts) {
  HostFaultModelConfig cfg = CrashyConfig();
  HostFaultModel model(cfg, 7);
  const auto first = model.FirstFailureIn(0, 0, 3'600 * kSec);
  ASSERT_TRUE(first.has_value());
  // Right after host 0 fails, round-robin must never hand it out.
  for (int i = 0; i < 32; ++i) {
    EXPECT_NE(model.PickHost(first->time + 1), 0);
  }
}

TEST(HostFaultSchedule, GracefulFractionExtremes) {
  HostFaultModelConfig cfg = CrashyConfig();
  cfg.graceful_fraction = 1.0;
  HostFaultModel all_graceful(cfg, 5);
  cfg.graceful_fraction = 0.0;
  HostFaultModel all_abrupt(cfg, 5);
  int seen = 0;
  for (int h = 0; h < cfg.hosts; ++h) {
    for (MicroSecs t = 0; t < 3'600 * kSec;) {
      const auto ev = all_graceful.FirstFailureIn(h, t, 3'600 * kSec);
      if (!ev.has_value()) {
        break;
      }
      EXPECT_TRUE(ev->graceful);
      t = ev->time;
      ++seen;
    }
  }
  EXPECT_GT(seen, 5);
  for (int h = 0; h < cfg.hosts; ++h) {
    const auto ev = all_abrupt.FirstFailureIn(h, 0, 3'600 * kSec);
    if (ev.has_value()) {
      EXPECT_FALSE(ev->graceful);
    }
  }
}

TEST(HostFaultSchedule, ZoneOutagesHitEveryHostInTheZoneAtOnce) {
  HostFaultModelConfig cfg;
  cfg.hosts = 8;
  cfg.zones = 4;  // Host h lives in zone h % 4.
  cfg.zone_outage_mtbf_seconds = 600.0;  // Fleet-wide: frequent outages.
  cfg.mttr_seconds = 60.0;
  cfg.graceful_fraction = 1.0;  // Must NOT apply: outages are always abrupt.
  HostFaultModel model(cfg, 11);
  // With ~12 expected outages in the window, some zone is certain to be hit.
  // For every zone that is, its two resident hosts (z and z + 4) must fail
  // at the exact same instant, abruptly, and a window ending just before the
  // outage must be clean.
  int zones_hit = 0;
  for (int z = 0; z < cfg.zones; ++z) {
    const auto ev = model.FirstFailureIn(z, 0, 7'200 * kSec);
    if (!ev.has_value()) {
      continue;
    }
    ++zones_hit;
    EXPECT_FALSE(ev->graceful) << "zone " << z;
    const auto peer = model.FirstFailureIn(z + 4, 0, 7'200 * kSec);
    ASSERT_TRUE(peer.has_value()) << "zone " << z;
    EXPECT_EQ(peer->time, ev->time) << "zone " << z;
    EXPECT_FALSE(peer->graceful) << "zone " << z;
    EXPECT_FALSE(model.FirstFailureIn(z, 0, ev->time - 1).has_value()) << "zone " << z;
  }
  EXPECT_GT(zones_hit, 0);
}

// The failure schedule regenerated independently from the documented
// streams — own crashes on kHostStreamBase + host (exponential gaps, the
// clock paused for MTTR after each), zone outages on kHostFaultStream — and
// answered by a brute-force scan: the earliest own crash or outage of the
// host's zone in (after, upto], an own crash winning a tie.
class ReferenceSchedule {
 public:
  ReferenceSchedule(const HostFaultModelConfig& cfg, uint64_t seed, MicroSecs horizon)
      : cfg_(cfg) {
    const MicroSecs mttr = static_cast<MicroSecs>(cfg.mttr_seconds * kSec);
    for (int h = 0; h < cfg.hosts; ++h) {
      Rng rng(DeriveSeed(seed, kHostStreamBase + static_cast<uint64_t>(h)));
      std::vector<HostFailureEvent>& own = own_.emplace_back();
      for (MicroSecs until = 0; cfg.mtbf_seconds > 0.0 && until <= horizon;) {
        HostFailureEvent ev;
        ev.time = until + std::max<MicroSecs>(
                              1, static_cast<MicroSecs>(rng.Exponential(
                                     1.0 / (cfg.mtbf_seconds * kSec))));
        ev.graceful = cfg.graceful_fraction > 0.0 && rng.Bernoulli(cfg.graceful_fraction);
        own.push_back(ev);
        until = ev.time + mttr;
      }
    }
    Rng zone_rng(DeriveSeed(seed, kHostFaultStream));
    for (MicroSecs t = 0; t <= horizon;) {
      t += std::max<MicroSecs>(1, static_cast<MicroSecs>(zone_rng.Exponential(
                                      1.0 / (cfg.zone_outage_mtbf_seconds * kSec))));
      outages_.emplace_back(t, static_cast<int>(zone_rng.UniformInt(0, cfg.zones - 1)));
    }
  }

  std::optional<HostFailureEvent> FirstFailureIn(int host, MicroSecs after,
                                                 MicroSecs upto) const {
    std::optional<HostFailureEvent> best;
    for (const HostFailureEvent& ev : own_[static_cast<size_t>(host)]) {
      if (ev.time > after && ev.time <= upto && (!best || ev.time < best->time)) {
        best = ev;
      }
    }
    for (const auto& [time, zone] : outages_) {
      if (zone == host % cfg_.zones && time > after && time <= upto &&
          (!best || time < best->time)) {
        best = HostFailureEvent{time, /*graceful=*/false};
      }
    }
    return best;
  }

 private:
  HostFaultModelConfig cfg_;
  std::vector<std::vector<HostFailureEvent>> own_;
  std::vector<std::pair<MicroSecs, int>> outages_;
};

// Random hosts and windows in random order (late queries extend the
// schedule first, early ones then search deep into it), every other window
// opening exactly at the previous answer, on a mixed schedule and on an
// outages-only one.
TEST(HostFaultSchedule, FirstFailureInMatchesBruteForceOverRandomWindows) {
  HostFaultModelConfig mixed;
  mixed.hosts = 6;
  mixed.zones = 3;
  mixed.mtbf_seconds = 900.0;
  mixed.mttr_seconds = 60.0;
  mixed.zone_outage_mtbf_seconds = 120.0;  // ~180 outages over the horizon.
  mixed.graceful_fraction = 0.4;
  HostFaultModelConfig outages_only = mixed;
  outages_only.mtbf_seconds = 0.0;
  const MicroSecs horizon = 6 * 3'600 * kSec;
  const MicroSecs lengths[] = {0, kSec, 60 * kSec, 600 * kSec, 3'600 * kSec};
  for (const HostFaultModelConfig& cfg : {mixed, outages_only}) {
    for (const uint64_t seed : {3ULL, 4ULL}) {
      const ReferenceSchedule ref(cfg, seed, 2 * horizon);
      HostFaultModel model(cfg, seed);
      Rng pick(seed);
      int graceful_hits = 0;
      int abrupt_hits = 0;
      MicroSecs last_hit = -1;
      for (int i = 0; i < 4'000; ++i) {
        const int host = static_cast<int>(pick.UniformInt(0, cfg.hosts - 1));
        MicroSecs after = pick.UniformInt(0, horizon);
        if (i % 2 == 1 && last_hit >= 0) {
          after = last_hit;
        }
        const MicroSecs upto =
            after + pick.UniformInt(-kSec, lengths[pick.UniformInt(0, 4)]);
        const auto got = model.FirstFailureIn(host, after, upto);
        const auto want = ref.FirstFailureIn(host, after, upto);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "mtbf " << cfg.mtbf_seconds << " seed " << seed << " host " << host
            << " (" << after << ", " << upto << "]";
        if (got.has_value()) {
          EXPECT_EQ(got->time, want->time) << "seed " << seed << " query " << i;
          EXPECT_EQ(got->graceful, want->graceful) << "seed " << seed << " query " << i;
          ++(got->graceful ? graceful_hits : abrupt_hits);
          last_hit = got->time;
        }
      }
      EXPECT_GT(abrupt_hits, 100) << "mtbf " << cfg.mtbf_seconds << " seed " << seed;
      if (cfg.mtbf_seconds > 0.0) {
        EXPECT_GT(graceful_hits, 10) << "seed " << seed;  // Own crashes answer too.
      }
    }
  }
}

// --- Fleet integration: zero-chaos bit-identical goldens ---

// The same goldens as FleetZeroFaultBaseline.ReproducesPreFaultGoldens, but
// with chaos knobs present-and-disabled: hosts assigned yet no failure
// source, a sandbox cap high enough to never bind, and a breaker threshold
// of 0. None of it may consume randomness or perturb a single event.
TEST(FleetChaosBaseline, DisabledChaosKnobsAreBitIdentical) {
  const auto trace = SmallTrace();
  FleetSimConfig cfg;
  cfg.host_faults.hosts = 16;  // No mtbf / zone outages: model disabled.
  cfg.max_sandboxes_per_function = 1'000'000;  // Never binds.
  cfg.retry.breaker_threshold = 0;
  const FleetResult res =
      SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  EXPECT_EQ(res.requests, 20'000);
  EXPECT_EQ(res.attempts, 20'000);
  EXPECT_EQ(res.cold_starts, 420);
  EXPECT_EQ(res.sandboxes, 420);
  EXPECT_NEAR(res.revenue, 0.061715137045, 1e-9);
  EXPECT_NEAR(res.fee_revenue, 0.004, 1e-12);
  EXPECT_NEAR(res.hardware_cost, 7.659170525324, 1e-9);
  EXPECT_NEAR(res.busy_seconds, 1'372.909393, 1e-5);
  EXPECT_NEAR(res.idle_seconds, 756'620.857790, 1e-5);
  EXPECT_EQ(res.peak_servers, 4);
  EXPECT_EQ(res.successes, 20'000);
  EXPECT_EQ(res.failed_attempts, 0);
  // The whole chaos taxonomy is silent.
  EXPECT_EQ(res.rejected_attempts, 0);
  EXPECT_EQ(res.queue_timeout_attempts, 0);
  EXPECT_EQ(res.circuit_open_attempts, 0);
  EXPECT_EQ(res.breaker_trips, 0);
  EXPECT_EQ(res.queued_attempts, 0);
  EXPECT_EQ(res.host_fault_attempt_kills, 0);
  EXPECT_EQ(res.host_fault_sandbox_kills, 0);
  EXPECT_EQ(res.drain_survivals, 0);
}

// --- Fleet integration: host failures ---

FleetSimConfig ChaoticFleet() {
  FleetSimConfig cfg;
  cfg.host_faults.hosts = 8;
  cfg.host_faults.mtbf_seconds = 300.0;
  cfg.host_faults.mttr_seconds = 60.0;
  cfg.retry.max_attempts = 3;
  return cfg;
}

TEST(FleetHostFaults, HostLossKillsSandboxesAndStampedesColdStarts) {
  const auto trace = SmallTrace();
  const auto clean =
      SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), FleetSimConfig{});
  const auto res =
      SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), ChaoticFleet());
  EXPECT_GT(res.host_fault_sandbox_kills, 0);
  // Killed sandboxes force the replacements into cold starts.
  EXPECT_GT(res.cold_starts, clean.cold_starts);
  EXPECT_GT(res.sandboxes, clean.sandboxes);
  // Requests all resolve: successes plus terminal failures cover the trace.
  EXPECT_EQ(res.successes + res.retries_exhausted, res.requests);
  ASSERT_EQ(res.e2e_latency.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_GE(res.e2e_latency[i], 0) << i;
  }
  // Sandbox kill accounting matches the spans: killed sandboxes are exactly
  // those pinned to a host (all of them, since host faults are on).
  for (const auto& span : res.spans) {
    EXPECT_GE(span.host, 0);
    EXPECT_LT(span.host, 8);
  }
}

TEST(FleetHostFaults, DeterministicUnderSameSeedAndSensitiveToIt) {
  const auto trace = SmallTrace();
  const auto a = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), ChaoticFleet());
  const auto b = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), ChaoticFleet());
  EXPECT_EQ(a.host_fault_sandbox_kills, b.host_fault_sandbox_kills);
  EXPECT_EQ(a.host_fault_attempt_kills, b.host_fault_attempt_kills);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_DOUBLE_EQ(a.revenue, b.revenue);
  ASSERT_EQ(a.e2e_latency.size(), b.e2e_latency.size());
  EXPECT_TRUE(std::equal(a.e2e_latency.begin(), a.e2e_latency.end(),
                         b.e2e_latency.begin()));

  FleetSimConfig other = ChaoticFleet();
  other.fault_seed = 4321;
  const auto c = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), other);
  EXPECT_NE(a.host_fault_sandbox_kills, c.host_fault_sandbox_kills);
}

TEST(FleetHostFaults, GracefulDrainsLetShortWorkFinish) {
  const auto trace = SmallTrace();
  FleetSimConfig cfg = ChaoticFleet();
  cfg.host_faults.mtbf_seconds = 120.0;  // Fail hard and often.
  cfg.host_faults.mttr_seconds = 30.0;
  cfg.host_faults.graceful_fraction = 1.0;
  cfg.host_faults.drain_deadline = 60 * kSec;  // Far beyond any execution.
  const auto res = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  // Sandboxes still die (drained hosts go away)...
  EXPECT_GT(res.host_fault_sandbox_kills, 0);
  // ...but with an hour-scale drain budget no in-flight attempt is killed:
  // every overlap is a drain survival instead.
  EXPECT_EQ(res.host_fault_attempt_kills, 0);
  EXPECT_GT(res.drain_survivals, 0);

  // Zero deadline degrades graceful drains into abrupt kills.
  cfg.host_faults.drain_deadline = 0;
  const auto abrupt = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  EXPECT_EQ(abrupt.drain_survivals, 0);
  EXPECT_GT(abrupt.host_fault_attempt_kills, 0);
}

// --- Fleet integration: admission control and the circuit breaker ---

// A hand-built trace gives precise control: one function, fixed 100 ms
// executions, arrivals chosen to exceed a one-sandbox capacity.
std::vector<RequestRecord> BurstTrace(int n, MicroSecs spacing, MicroSecs exec) {
  std::vector<RequestRecord> trace(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& r = trace[static_cast<size_t>(i)];
    r.function_id = 1;
    r.arrival = i * spacing;
    r.exec_duration = exec;
    r.cpu_time = exec;
    r.alloc_vcpus = 1.0;
    r.alloc_mem_mb = 1'024.0;
    r.used_mem_mb = 256.0;
  }
  return trace;
}

TEST(FleetAdmission, CapWithoutQueueRejectsConcurrentOverflow) {
  // 10 simultaneous arrivals, 1 sandbox, no queue: 1 runs, 9 get 429s.
  const auto trace = BurstTrace(10, 0, 100 * kMs);
  FleetSimConfig cfg;
  cfg.init_duration = 0;  // Keep the hand-computed timings exact.
  cfg.max_sandboxes_per_function = 1;
  cfg.retry.retry_rejected = false;
  const auto res = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  EXPECT_EQ(res.successes, 1);
  EXPECT_EQ(res.rejected_attempts, 9);
  EXPECT_EQ(res.queued_attempts, 0);
}

TEST(FleetAdmission, QueueAbsorbsBurstWithinDepthAndTimeout) {
  const auto trace = BurstTrace(10, 0, 100 * kMs);
  FleetSimConfig cfg;
  cfg.init_duration = 0;  // Keep the hand-computed timings exact.
  cfg.max_sandboxes_per_function = 1;
  cfg.admission.enabled = true;
  cfg.admission.queue_depth = 16;
  cfg.admission.queue_timeout = 0;  // Wait forever.
  const auto res = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  // Everything eventually runs, serialized through the single sandbox.
  EXPECT_EQ(res.successes, 10);
  EXPECT_EQ(res.rejected_attempts, 0);
  EXPECT_EQ(res.queued_attempts, 9);
  EXPECT_GT(res.queue_wait_seconds, 0.0);
  // Serialized executions: the last request waited ~9 executions.
  EXPECT_GE(res.e2e_latency[9], 9 * 100 * kMs);
}

TEST(FleetAdmission, FullQueueShedsNewestAndTimeoutBoundsWaits) {
  // Depth 3: of 10 simultaneous arrivals, 1 runs, 3 queue, 6 shed.
  const auto trace = BurstTrace(10, 0, 100 * kMs);
  FleetSimConfig cfg;
  cfg.init_duration = 0;  // Keep the hand-computed timings exact.
  cfg.max_sandboxes_per_function = 1;
  cfg.admission.enabled = true;
  cfg.admission.queue_depth = 3;
  cfg.retry.retry_rejected = false;
  const auto res = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  EXPECT_EQ(res.successes, 4);
  EXPECT_EQ(res.rejected_attempts, 6);

  // A 150 ms wait budget admits only the first queued attempt (100 ms wait);
  // the other two time out in the queue.
  cfg.admission.queue_timeout = 150 * kMs;
  const auto timed = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  EXPECT_EQ(timed.successes, 2);
  EXPECT_EQ(timed.queue_timeout_attempts, 2);
  EXPECT_EQ(timed.rejected_attempts, 6);
}

TEST(FleetBreaker, TripsOnConsecutiveFailuresAndFastFails) {
  // Every attempt of the function crashes (failure_rate 1.0), so with
  // retries the breaker sees an unbroken failure run and opens.
  auto trace = BurstTrace(50, 200 * kMs, 100 * kMs);
  for (auto& r : trace) {
    r.failure_rate = 1.0;
  }
  FleetSimConfig cfg;
  cfg.retry.max_attempts = 2;
  cfg.retry.breaker_threshold = 5;
  cfg.retry.breaker_cooldown = 60 * kSec;  // Longer than the trace: stays open.
  const auto res = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
  EXPECT_EQ(res.successes, 0);
  EXPECT_GE(res.breaker_trips, 1);
  EXPECT_GT(res.circuit_open_attempts, 0);
  // Fast-failed dispatches never reach a sandbox: attempts exceed executed
  // work (crash_attempts) exactly by the circuit-open count.
  EXPECT_EQ(res.attempts, res.crash_attempts + res.circuit_open_attempts);

  // The breaker caps the bill: same workload without it executes (and
  // bills) every hopeless retry.
  FleetSimConfig no_breaker = cfg;
  no_breaker.retry.breaker_threshold = 0;
  const auto open_loop =
      SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), no_breaker);
  EXPECT_GT(open_loop.crash_attempts, res.crash_attempts);
  EXPECT_GT(open_loop.revenue, res.revenue);
}

}  // namespace
}  // namespace faascost
