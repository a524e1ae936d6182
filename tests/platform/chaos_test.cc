// Platform-level chaos: bounded admission queues with both shed policies,
// the client circuit breaker (trip, fast-fail, half-open recovery), graceful
// draining of busy instances on scale-down — and the zero-chaos contract
// that all of it, disabled, reproduces the pre-chaos goldens bit-for-bit.

#include <gtest/gtest.h>

#include "src/billing/catalog.h"
#include "src/integrity/archive.h"
#include "src/integrity/digest.h"
#include "src/platform/faults.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kMs = kMicrosPerMilli;

// --- Circuit breaker state machine (unit level) ---

// The breaker's archived state, as one digest.
uint64_t BreakerState(CircuitBreaker cb) {
  StateDigest d;
  Digester ar(&d);
  cb.Archive(ar);
  return d.value();
}

TEST(CircuitBreakerUnit, DisabledNeverGates) {
  CircuitBreaker cb(0, 30 * kSec);
  EXPECT_FALSE(cb.enabled());
  const uint64_t fresh = BreakerState(cb);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(cb.AllowDispatch(i * kSec));
    for (const Outcome oc : kAllOutcomes) {
      cb.Record(oc, i * kSec);
    }
  }
  EXPECT_EQ(BreakerState(cb), fresh);
  EXPECT_EQ(cb.trips(), 0);
}

// A circuit-open outcome is the breaker's own verdict: closed, open or
// half-open, recording one changes nothing.
TEST(CircuitBreakerUnit, CircuitOpenOutcomesAreIgnored) {
  CircuitBreaker cb(2, 10 * kSec);
  const auto ignored = [&cb](MicroSecs t) {
    const uint64_t before = BreakerState(cb);
    cb.Record(Outcome::kCircuitOpen, t);
    EXPECT_EQ(BreakerState(cb), before) << t;
  };
  cb.Record(Outcome::kTimeout, 0);  // Closed, one failure into the run.
  ignored(1 * kSec);
  cb.Record(Outcome::kRejected, 2 * kSec);  // Any other failure counts: open.
  EXPECT_EQ(cb.trips(), 1);
  ignored(3 * kSec);
  ASSERT_TRUE(cb.AllowDispatch(12 * kSec));  // The half-open probe.
  ignored(12 * kSec);
  EXPECT_FALSE(cb.AllowDispatch(12 * kSec + 1));  // The probe is still out.
  cb.Record(Outcome::kOk, 13 * kSec);
  EXPECT_FALSE(cb.open());
  EXPECT_EQ(cb.trips(), 1);
}

TEST(CircuitBreakerUnit, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreaker cb(3, 30 * kSec);
  cb.Record(Outcome::kCrash, 1 * kSec);
  cb.Record(Outcome::kCrash, 2 * kSec);
  cb.Record(Outcome::kOk, 2 * kSec);  // Breaks the run: the counter resets.
  cb.Record(Outcome::kCrash, 3 * kSec);
  cb.Record(Outcome::kCrash, 4 * kSec);
  EXPECT_TRUE(cb.AllowDispatch(5 * kSec));
  cb.Record(Outcome::kCrash, 5 * kSec);  // Third consecutive: trips.
  EXPECT_EQ(cb.trips(), 1);
  EXPECT_FALSE(cb.AllowDispatch(6 * kSec));
}

TEST(CircuitBreakerUnit, HalfOpenProbeRecoversOrReopens) {
  CircuitBreaker cb(2, 10 * kSec);
  cb.Record(Outcome::kCrash, 0);
  cb.Record(Outcome::kCrash, 1 * kSec);  // Open until 11 s.
  EXPECT_FALSE(cb.AllowDispatch(5 * kSec));
  // Cooldown elapsed: exactly one half-open probe gets through.
  EXPECT_TRUE(cb.AllowDispatch(12 * kSec));
  EXPECT_FALSE(cb.AllowDispatch(12 * kSec + 1));
  // Probe fails: re-open (second trip), another cooldown.
  cb.Record(Outcome::kCrash, 13 * kSec);
  EXPECT_EQ(cb.trips(), 2);
  EXPECT_FALSE(cb.AllowDispatch(14 * kSec));
  // Next probe succeeds: closed, dispatches flow again.
  EXPECT_TRUE(cb.AllowDispatch(24 * kSec));
  cb.Record(Outcome::kOk, 24 * kSec);
  EXPECT_TRUE(cb.AllowDispatch(24 * kSec + 1));
  EXPECT_TRUE(cb.AllowDispatch(24 * kSec + 2));
  EXPECT_EQ(cb.trips(), 2);
}

// --- Admission control (single-concurrency, event-driven) ---

PlatformSimConfig CappedAws() {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.max_instances = 1;
  cfg.admission.enabled = true;
  cfg.admission.queue_depth = 2;
  return cfg;
}

// Six arrivals 1 ms apart (well inside the ~600 ms cold start, but spaced so
// the ingress processes them in index order), one instance, queue depth 2.
std::vector<MicroSecs> SixQuickArrivals() {
  return {0, 1 * kMs, 2 * kMs, 3 * kMs, 4 * kMs, 5 * kMs};
}

TEST(PlatformAdmission, RejectNewestShedsTheArrivingTail) {
  PlatformSimConfig cfg = CappedAws();
  cfg.admission.shed = ShedPolicy::kRejectNewest;
  PlatformSim sim(cfg, 1);
  // The first is admitted (cold start), two wait, the last three are shed
  // on arrival.
  const auto res = sim.Run(SixQuickArrivals(), PyAesWorkload());
  EXPECT_EQ(res.successes, 3);
  EXPECT_EQ(res.shed_attempts, 3);
  EXPECT_EQ(res.queue_timeout_attempts, 0);
  for (const int shed_req : {3, 4, 5}) {
    EXPECT_EQ(res.requests[static_cast<size_t>(shed_req)].outcome, Outcome::kRejected);
  }
}

TEST(PlatformAdmission, RejectOldestShedsTheQueueHead) {
  PlatformSimConfig cfg = CappedAws();
  cfg.admission.shed = ShedPolicy::kRejectOldest;
  PlatformSim sim(cfg, 1);
  const auto res = sim.Run(SixQuickArrivals(), PyAesWorkload());
  EXPECT_EQ(res.successes, 3);
  EXPECT_EQ(res.shed_attempts, 3);
  // Each arriving tail request evicts the queue head: requests 1-3 are the
  // victims, 4-5 ride the queue to success.
  for (const int shed_req : {1, 2, 3}) {
    EXPECT_EQ(res.requests[static_cast<size_t>(shed_req)].outcome, Outcome::kRejected);
  }
  for (const int ok_req : {0, 4, 5}) {
    EXPECT_EQ(res.requests[static_cast<size_t>(ok_req)].outcome, Outcome::kOk);
  }
}

TEST(PlatformAdmission, QueueTimeoutFailsWaitersBeforeCapacityFrees) {
  PlatformSimConfig cfg = CappedAws();
  // The cold start alone (~600 ms) outlives a 200 ms wait budget.
  cfg.admission.queue_timeout = 200 * kMs;
  PlatformSim sim(cfg, 1);
  const auto res = sim.Run({0, 1 * kMs, 2 * kMs}, PyAesWorkload());
  EXPECT_EQ(res.successes, 1);
  EXPECT_EQ(res.queue_timeout_attempts, 2);
  EXPECT_EQ(res.timeout_attempts, 2);  // A queue timeout is a timeout.
  EXPECT_TRUE(res.Partitioned()) << res.PartitionText();
  EXPECT_EQ(res.requests[1].outcome, Outcome::kTimeout);
  EXPECT_EQ(res.requests[2].outcome, Outcome::kTimeout);
}

// --- Circuit breaker (integration) ---

TEST(PlatformBreaker, TripsFastFailsAndNeverBillsOpenCircuitAttempts) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.max_exec_duration = 50 * kMs;  // PyAes needs ~160 ms: all fail.
  cfg.retry.breaker_threshold = 3;
  cfg.retry.breaker_cooldown = 3'600LL * kSec;  // Longer than the run.
  PlatformSim sim(cfg, 21);
  std::vector<MicroSecs> arrivals;
  for (int i = 0; i < 10; ++i) {
    arrivals.push_back(i * kSec);
  }
  const auto res = sim.Run(arrivals, PyAesWorkload());
  EXPECT_EQ(res.successes, 0);
  EXPECT_EQ(res.breaker_trips, 1);
  EXPECT_EQ(res.timeout_attempts, 3);      // The trip threshold.
  EXPECT_EQ(res.circuit_open_attempts, 7); // Everything after the trip.
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (const auto& att : res.attempts) {
    const Invoice inv =
        ComputeInvoice(billing, BillableRecord(att, cfg.vcpus, cfg.mem_mb));
    if (att.outcome == Outcome::kCircuitOpen) {
      // Fast-failed dispatches never reached the platform: $0, no resources.
      EXPECT_DOUBLE_EQ(inv.total, 0.0);
      EXPECT_EQ(att.exec_duration, 0);
      EXPECT_EQ(att.sandbox_id, -1);
    } else {
      // AWS bills timed-out attempts; the breaker is what stops the bleed.
      EXPECT_GT(inv.total, 0.0);
    }
  }
}

// --- Graceful draining on scale-down (multi-concurrency) ---

// The scaler's demand signal is *windowed utilization*, so busy instances
// normally keep `desired` above the busy count (the 0.6 target bakes in
// slack). Draining happens in the metric lag: sustained load scales the
// deployment up, a silent gap drains the window (and some idle instances),
// and then a volley of long-running jobs lands on still-warm idle instances
// right before an eval whose window is mostly silence. The scaler sees low
// demand but a busy fleet, and its surplus-removal reaches past the idle
// pool into busy instances — the graceful-degradation moment.
PlatformSimConfig DrainyGcp() {
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.concurrency_limit = 1;  // One job per instance: busy count = instances.
  cfg.max_instances = 60;
  cfg.autoscaler.metric_window = 5 * kSec;  // Forget the load phase quickly.
  cfg.autoscaler.eval_interval = 2 * kSec;
  cfg.autoscaler.action_cooldown = 6 * kSec;
  return cfg;
}

std::vector<MicroSecs> LoadGapVolley() {
  std::vector<MicroSecs> arrivals;
  // 60 s of steady load: 0.5 rps of 20 s jobs keeps ~10 instances busy.
  for (MicroSecs t = 0; t < 60 * kSec; t += 2 * kSec) {
    arrivals.push_back(t);
  }
  // 10 s of silence, then 12 jobs land on the scaled-down-but-warm fleet.
  for (int i = 0; i < 12; ++i) {
    arrivals.push_back(70 * kSec + i * 10 * kMs);
  }
  return arrivals;
}

TEST(PlatformDrain, OffByDefaultBusyInstancesSurviveScaleDown) {
  PlatformSim sim(DrainyGcp(), 3);
  const auto res = sim.Run(LoadGapVolley(), ProfilerProbeWorkload(20 * kSec));
  EXPECT_EQ(res.successes, 42);
  EXPECT_EQ(res.drained_sandboxes, 0);
  EXPECT_EQ(res.drain_killed_attempts, 0);
}

TEST(PlatformDrain, GenerousDeadlineFinishesInFlightWork) {
  PlatformSimConfig cfg = DrainyGcp();
  cfg.scaledown_drains_busy = true;
  cfg.drain_deadline = 600 * kSec;  // Far beyond the remaining work.
  PlatformSim sim(cfg, 3);
  const auto res = sim.Run(LoadGapVolley(), ProfilerProbeWorkload(20 * kSec));
  // Surplus busy instances were put into draining, but every job finished
  // inside the budget: graceful degradation with zero casualties.
  EXPECT_GT(res.drained_sandboxes, 0);
  EXPECT_EQ(res.drain_killed_attempts, 0);
  EXPECT_EQ(res.successes, 42);
}

TEST(PlatformDrain, TightDeadlineKillsWhatIsStillRunning) {
  PlatformSimConfig cfg = DrainyGcp();
  cfg.scaledown_drains_busy = true;
  cfg.drain_deadline = 1 * kSec;  // The 20 s jobs cannot finish in time.
  PlatformSim sim(cfg, 3);
  const auto res = sim.Run(LoadGapVolley(), ProfilerProbeWorkload(20 * kSec));
  EXPECT_GT(res.drained_sandboxes, 0);
  EXPECT_GT(res.drain_killed_attempts, 0);
  EXPECT_LT(res.successes, 42);
  int64_t crashes = 0;
  for (const auto& req : res.requests) {
    crashes += req.outcome == Outcome::kCrash ? 1 : 0;
  }
  EXPECT_EQ(crashes, res.drain_killed_attempts);
}

// --- Zero-chaos contract: inert knobs reproduce the pre-chaos goldens ---
// Same goldens as ZeroFaultBaseline in faults_test.cc, but with the chaos
// machinery present and disabled: a configured-but-off admission queue, a
// zero breaker threshold, drain deadlines set but never consulted. None of
// it may perturb a single event or draw a single random number.

TEST(ZeroChaosBaseline, AwsWithInertChaosKnobsBitIdentical) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.admission.enabled = false;
  cfg.admission.queue_depth = 64;  // Ignored while disabled.
  cfg.admission.queue_timeout = 5 * kSec;
  cfg.retry.breaker_threshold = 0;
  cfg.scaledown_drains_busy = false;
  cfg.drain_deadline = 2 * kSec;
  PlatformSim sim(cfg, 99);
  const auto res = sim.Run(UniformArrivals(5.0, 20 * kSec), PyAesWorkload());
  ASSERT_EQ(res.requests.size(), 100u);
  EXPECT_EQ(res.cold_starts, 3);
  int64_t sum_completion = 0;
  int64_t sum_e2e = 0;
  for (const auto& r : res.requests) {
    sum_completion += r.completion;
    sum_e2e += r.e2e_latency;
  }
  EXPECT_EQ(sum_completion, 1'007'331'952);
  EXPECT_EQ(sum_e2e, 17'331'952);
  EXPECT_NEAR(res.total_instance_seconds, 59.281749, 1e-6);
  EXPECT_EQ(res.circuit_open_attempts, 0);
  EXPECT_EQ(res.queue_timeout_attempts, 0);
  EXPECT_EQ(res.shed_attempts, 0);
  EXPECT_EQ(res.breaker_trips, 0);
  EXPECT_EQ(res.drained_sandboxes, 0);
  EXPECT_EQ(res.drain_killed_attempts, 0);
}

TEST(ZeroChaosBaseline, GcpWithInertChaosKnobsBitIdentical) {
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.admission.enabled = false;
  cfg.admission.queue_depth = 32;
  cfg.retry.breaker_threshold = 0;
  cfg.scaledown_drains_busy = false;
  PlatformSim sim(cfg, 58);
  const auto res = sim.Run(UniformArrivals(10.0, 30 * kSec), PyAesWorkload());
  ASSERT_EQ(res.requests.size(), 300u);
  EXPECT_EQ(res.cold_starts, 2);
  int64_t sum_completion = 0;
  int64_t sum_e2e = 0;
  for (const auto& r : res.requests) {
    sum_completion += r.completion;
    sum_e2e += r.e2e_latency;
  }
  EXPECT_EQ(sum_completion, 9'948'682'328);
  EXPECT_EQ(sum_e2e, 5'463'682'328);
  EXPECT_NEAR(res.total_instance_seconds, 60.400872, 1e-6);
  EXPECT_EQ(res.shed_attempts, 0);
  EXPECT_EQ(res.drained_sandboxes, 0);
}

// Presets must stay inert: every preset now carries a drain deadline, and
// merely carrying it must not enable draining.
TEST(ZeroChaosBaseline, PresetsCarryDrainDeadlinesButStayInert) {
  for (const PlatformSimConfig& cfg :
       {AwsLambdaPlatform(1.0, 1'769.0), GcpPlatform(1.0, 1'024.0), AzurePlatform(),
        CloudflarePlatform(), IbmPlatform(1.0, 2'048.0)}) {
    EXPECT_GT(cfg.drain_deadline, 0) << cfg.name;
    EXPECT_FALSE(cfg.scaledown_drains_busy) << cfg.name;
    EXPECT_FALSE(cfg.admission.enabled) << cfg.name;
    EXPECT_EQ(cfg.retry.breaker_threshold, 0) << cfg.name;
  }
}

}  // namespace
}  // namespace faascost
