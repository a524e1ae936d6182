#include "src/platform/faults.h"

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kMs = kMicrosPerMilli;

// --- Config validation ---

TEST(FaultConfig, ValidDefaults) {
  EXPECT_TRUE(FaultModelConfig{}.Validate().empty());
  EXPECT_TRUE(RetryPolicy{}.Validate().empty());
  EXPECT_FALSE(FaultModelConfig{}.AnyEnabled());
  EXPECT_FALSE(RetryPolicy{}.enabled());
}

TEST(FaultConfig, RejectsBadProbabilities) {
  FaultModelConfig cfg;
  cfg.crash_prob = 1.5;
  cfg.init_failure_prob = -0.1;
  cfg.max_exec_duration = -5;
  EXPECT_EQ(cfg.Validate().size(), 3u);
}

TEST(RetryPolicyConfig, RejectsNonsense) {
  RetryPolicy retry;
  retry.max_attempts = 0;
  retry.backoff_base = 0;
  retry.backoff_multiplier = 0.5;
  retry.attempt_timeout = -1;
  EXPECT_GE(retry.Validate().size(), 4u);
}

// PlatformSim's admission queue: on, it needs a depth (a zero-depth queue
// admits nothing); on or off, its timeout is a wait, never negative.
TEST(AdmissionConfig, EnabledQueueNeedsDepthAndTimeoutIsNeverNegative) {
  const auto errors = [](bool enabled, int depth, MicroSecs timeout) {
    PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
    cfg.admission.enabled = enabled;
    cfg.admission.queue_depth = depth;
    cfg.admission.queue_timeout = timeout;
    return cfg.Validate();
  };
  EXPECT_TRUE(errors(true, 8, 0).empty());
  EXPECT_TRUE(errors(false, 0, 0).empty());  // Off, the depth is never read.
  // (the field the one error must name, the errors)
  const std::vector<std::pair<std::string, std::vector<std::string>>> rows = {
      {"admission: queue_depth", errors(true, 0, 0)},
      {"admission: queue_timeout", errors(true, 8, -1)},
      {"admission: queue_timeout", errors(false, 0, -1)},
  };
  for (const auto& [field, refused] : rows) {
    ASSERT_EQ(refused.size(), 1u) << field;
    EXPECT_EQ(refused.front().rfind(field, 0), 0u) << refused.front();
  }
  PlatformSimConfig zero_depth = AwsLambdaPlatform(1.0, 1'769.0);
  zero_depth.admission.enabled = true;
  EXPECT_THROW(PlatformSim(zero_depth, 1), std::invalid_argument);
}

TEST(PlatformSimConfigValidation, ConstructorThrowsOnBadConfig) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.vcpus = 0.0;
  EXPECT_THROW(PlatformSim(cfg, 1), std::invalid_argument);
  cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.concurrency_limit = 0;
  EXPECT_THROW(PlatformSim(cfg, 1), std::invalid_argument);
  cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.crash_prob = 2.0;
  EXPECT_THROW(PlatformSim(cfg, 1), std::invalid_argument);
  cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.retry.backoff_base = -1;
  EXPECT_THROW(PlatformSim(cfg, 1), std::invalid_argument);
}

// --- The client side of an attempt ---

TEST(AttemptFailures, CountFilesEachFailureUnderExactlyOneCause) {
  using Field = int64_t AttemptFailures::*;
  const std::vector<Field> causes = {
      &AttemptFailures::crash_attempts,        &AttemptFailures::timeout_attempts,
      &AttemptFailures::init_failure_attempts, &AttemptFailures::rejected_attempts,
      &AttemptFailures::circuit_open_attempts, &AttemptFailures::queue_timeout_attempts};
  // (every outcome an attempt concludes with, the cause it files under)
  const std::vector<std::pair<Outcome, Field>> rows = {
      {Outcome::kOk, nullptr},
      {Outcome::kInitFailure, &AttemptFailures::init_failure_attempts},
      {Outcome::kCrash, &AttemptFailures::crash_attempts},
      {Outcome::kTimeout, &AttemptFailures::timeout_attempts},
      {Outcome::kRejected, &AttemptFailures::rejected_attempts},
      {Outcome::kCircuitOpen, &AttemptFailures::circuit_open_attempts},
  };
  AttemptFailures total;
  for (const auto& [oc, cause] : rows) {
    AttemptFailures one;
    one.Count(oc);
    total.Count(oc);
    EXPECT_EQ(one.failed_attempts, cause == nullptr ? 0 : 1) << OutcomeName(oc);
    for (const Field field : causes) {
      EXPECT_EQ(one.*field, field == cause ? 1 : 0) << OutcomeName(oc);
    }
    EXPECT_TRUE(one.Partitioned()) << OutcomeName(oc);
  }
  EXPECT_EQ(total.failed_attempts, 5);
  EXPECT_TRUE(total.Partitioned());
  // The rest are request-level or workflow-only: no attempt concludes with one.
  const Outcome others[] = {Outcome::kRetriesExhausted, Outcome::kUpstreamFailed,
                            Outcome::kHedgeLoser, Outcome::kDeadLettered};
  EXPECT_EQ(rows.size() + std::size(others), std::size(kAllOutcomes));
  for (const Outcome oc : others) {
    AttemptFailures none;
    EXPECT_THROW(none.Count(oc), std::logic_error) << OutcomeName(oc);
    EXPECT_EQ(none.failed_attempts, 0) << OutcomeName(oc);
  }
}

TEST(AttemptFailures, QueueTimeoutsRefineTimeouts) {
  AttemptFailures f;
  f.Count(Outcome::kTimeout);
  ++f.queue_timeout_attempts;  // The engine's count where the wait ended.
  EXPECT_TRUE(f.Partitioned());
  ++f.queue_timeout_attempts;  // A queue timeout that is no timeout.
  EXPECT_FALSE(f.Partitioned());
  EXPECT_EQ(f.PartitionText(), "causes=1 failed=1 queue_timeouts=2 timeouts=1");
  AttemptFailures unfiled;
  ++unfiled.failed_attempts;  // A failure under no cause.
  EXPECT_FALSE(unfiled.Partitioned());
}

TEST(RetryPolicyRetries, RetriesWhileAttemptsRemainAndRejectionsOnlyWhenAllowed) {
  for (const bool retry_rejected : {true, false}) {
    RetryPolicy retry;
    retry.max_attempts = 3;
    retry.retry_rejected = retry_rejected;
    for (const Outcome oc : kAllOutcomes) {
      if (oc == Outcome::kOk) {
        continue;
      }
      for (int attempt = 1; attempt <= 4; ++attempt) {
        const bool want = attempt < 3 && (oc != Outcome::kRejected || retry_rejected);
        EXPECT_EQ(retry.Retries(oc, attempt), want)
            << OutcomeName(oc) << " attempt " << attempt << " retry_rejected "
            << retry_rejected;
      }
    }
  }
  // One attempt in total: nothing is ever retried.
  EXPECT_FALSE(RetryPolicy{}.Retries(Outcome::kCrash, 1));
}

// --- Backoff ---

TEST(RetryPolicyBackoff, ExponentialWithoutJitter) {
  RetryPolicy retry;
  retry.backoff_base = 100 * kMs;
  retry.backoff_multiplier = 2.0;
  retry.backoff_cap = 1'000 * kMs;
  retry.full_jitter = false;
  Rng rng(7);
  EXPECT_EQ(retry.BackoffDelay(1, rng), 100 * kMs);
  EXPECT_EQ(retry.BackoffDelay(2, rng), 200 * kMs);
  EXPECT_EQ(retry.BackoffDelay(3, rng), 400 * kMs);
  EXPECT_EQ(retry.BackoffDelay(10, rng), 1'000 * kMs);  // Capped.
}

TEST(RetryPolicyBackoff, FullJitterStaysInBound) {
  RetryPolicy retry;
  retry.backoff_base = 100 * kMs;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const MicroSecs d = retry.BackoffDelay(1, rng);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 100 * kMs);
  }
}

TEST(RetryPolicyBackoff, HugeAttemptCountsDoNotOverflow) {
  RetryPolicy retry;
  retry.backoff_base = 100 * kMs;
  retry.backoff_multiplier = 2.0;
  retry.backoff_cap = 10 * kSec;
  retry.full_jitter = false;
  Rng rng(7);
  // Exponents far past kBackoffExponentCap (and past what any double can
  // represent exactly) must clamp to the cap instead of overflowing into
  // negative or zero delays.
  for (const int attempt : {63, 64, 100, 1'000, 1'000'000, INT32_MAX}) {
    EXPECT_EQ(retry.BackoffDelay(attempt, rng), retry.backoff_cap) << attempt;
  }
  // Even with an absurd multiplier and no cap to hide behind, the delay is
  // finite and positive.
  retry.backoff_cap = 0x7fffffffffffffffLL;
  for (const int attempt : {100, INT32_MAX}) {
    const MicroSecs d = retry.BackoffDelay(attempt, rng);
    EXPECT_GT(d, 0) << attempt;
  }
}

// --- Zero-fault runs reproduce the pre-fault baseline exactly ---
// Golden values captured from the simulator before fault injection existed;
// the fault path must not perturb the RNG stream or the event sequence.

TEST(ZeroFaultBaseline, AwsSingleConcurrencyBitIdentical) {
  PlatformSim sim(AwsLambdaPlatform(1.0, 1'769.0), 99);
  const auto res = sim.Run(UniformArrivals(5.0, 20 * kSec), PyAesWorkload());
  ASSERT_EQ(res.requests.size(), 100u);
  EXPECT_EQ(res.cold_starts, 3);
  EXPECT_EQ(res.sandboxes.size(), 3u);
  int64_t sum_completion = 0;
  int64_t sum_e2e = 0;
  for (const auto& r : res.requests) {
    sum_completion += r.completion;
    sum_e2e += r.e2e_latency;
  }
  EXPECT_EQ(sum_completion, 1'007'331'952);
  EXPECT_EQ(sum_e2e, 17'331'952);
  EXPECT_NEAR(res.total_instance_seconds, 59.281749, 1e-6);
  // The failure taxonomy is all-zero and every attempt succeeded.
  EXPECT_EQ(res.attempts.size(), res.requests.size());
  EXPECT_EQ(res.successes, 100);
  EXPECT_EQ(res.failed_attempts, 0);
  EXPECT_EQ(res.retries, 0);
  for (const auto& r : res.requests) {
    EXPECT_EQ(r.outcome, Outcome::kOk);
    EXPECT_EQ(r.attempts, 1);
  }
}

TEST(ZeroFaultBaseline, GcpMultiConcurrencyBitIdentical) {
  PlatformSim sim(GcpPlatform(1.0, 1'024.0), 58);
  const auto res = sim.Run(UniformArrivals(10.0, 30 * kSec), PyAesWorkload());
  ASSERT_EQ(res.requests.size(), 300u);
  EXPECT_EQ(res.cold_starts, 2);
  EXPECT_EQ(res.sandboxes.size(), 2u);
  int64_t sum_completion = 0;
  int64_t sum_e2e = 0;
  for (const auto& r : res.requests) {
    sum_completion += r.completion;
    sum_e2e += r.e2e_latency;
  }
  EXPECT_EQ(sum_completion, 9'948'682'328);
  EXPECT_EQ(sum_e2e, 5'463'682'328);
  EXPECT_NEAR(res.total_instance_seconds, 60.400872, 1e-6);
  EXPECT_EQ(res.successes, 300);
  EXPECT_EQ(res.failed_attempts, 0);
}

// --- Determinism of the fault path ---

PlatformSimConfig FaultyAws() {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.crash_prob = 0.10;
  cfg.faults.init_failure_prob = 0.05;
  cfg.retry.max_attempts = 3;
  return cfg;
}

TEST(FaultDeterminism, SameSeedSameResults) {
  const auto arrivals = UniformArrivals(5.0, 60 * kSec);
  PlatformSim a(FaultyAws(), 17);
  PlatformSim b(FaultyAws(), 17);
  const auto ra = a.Run(arrivals, PyAesWorkload());
  const auto rb = b.Run(arrivals, PyAesWorkload());
  ASSERT_EQ(ra.attempts.size(), rb.attempts.size());
  for (size_t i = 0; i < ra.attempts.size(); ++i) {
    EXPECT_EQ(ra.attempts[i].outcome, rb.attempts[i].outcome);
    EXPECT_EQ(ra.attempts[i].dispatched, rb.attempts[i].dispatched);
    EXPECT_EQ(ra.attempts[i].end, rb.attempts[i].end);
    EXPECT_EQ(ra.attempts[i].exec_duration, rb.attempts[i].exec_duration);
    EXPECT_EQ(ra.attempts[i].sandbox_id, rb.attempts[i].sandbox_id);
  }
  ASSERT_EQ(ra.requests.size(), rb.requests.size());
  for (size_t i = 0; i < ra.requests.size(); ++i) {
    EXPECT_EQ(ra.requests[i].completion, rb.requests[i].completion);
    EXPECT_EQ(ra.requests[i].outcome, rb.requests[i].outcome);
    EXPECT_EQ(ra.requests[i].attempts, rb.requests[i].attempts);
  }
  EXPECT_EQ(ra.cold_starts, rb.cold_starts);
  EXPECT_EQ(ra.crash_attempts, rb.crash_attempts);
  EXPECT_EQ(ra.init_failure_attempts, rb.init_failure_attempts);
}

TEST(FaultDeterminism, DifferentSeedDifferentFaults) {
  const auto arrivals = UniformArrivals(5.0, 60 * kSec);
  PlatformSim a(FaultyAws(), 17);
  PlatformSim b(FaultyAws(), 18);
  const auto ra = a.Run(arrivals, PyAesWorkload());
  const auto rb = b.Run(arrivals, PyAesWorkload());
  // The fault sequences must differ somewhere (sizes or outcomes).
  bool differ = ra.attempts.size() != rb.attempts.size();
  for (size_t i = 0; !differ && i < ra.attempts.size(); ++i) {
    differ = ra.attempts[i].outcome != rb.attempts[i].outcome;
  }
  EXPECT_TRUE(differ);
}

// --- Fault mechanics ---

TEST(FaultInjection, CrashRateMatchesConfiguration) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.crash_prob = 0.10;
  PlatformSim sim(cfg, 5);
  const auto res = sim.Run(UniformArrivals(10.0, 120 * kSec), PyAesWorkload());
  const double observed = static_cast<double>(res.crash_attempts) /
                          static_cast<double>(res.attempts.size());
  EXPECT_NEAR(observed, 0.10, 0.03);
  // Without retries every crash is a terminal request failure.
  EXPECT_EQ(res.successes + res.crash_attempts,
            static_cast<int64_t>(res.requests.size()));
  for (const auto& att : res.attempts) {
    if (att.outcome == Outcome::kCrash) {
      EXPECT_GT(att.exec_duration, 0);
    }
  }
}

TEST(FaultInjection, CrashDestroysSandboxAndAmplifiesColdStarts) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  PlatformSim clean(cfg, 5);
  const int clean_cold =
      clean.Run(UniformArrivals(5.0, 60 * kSec), PyAesWorkload()).cold_starts;
  cfg.faults.crash_prob = 0.20;
  PlatformSim faulty(cfg, 5);
  const auto res = faulty.Run(UniformArrivals(5.0, 60 * kSec), PyAesWorkload());
  EXPECT_GT(res.cold_starts, clean_cold + res.crash_attempts / 2);
}

TEST(FaultInjection, ExecTimeoutCutsAtLimitAndBillsThrough) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.max_exec_duration = 100 * kMs;  // PyAes needs ~160 ms CPU.
  PlatformSim sim(cfg, 3);
  const auto res = sim.Run(UniformArrivals(2.0, 30 * kSec), PyAesWorkload());
  EXPECT_EQ(res.timeout_attempts, static_cast<int64_t>(res.attempts.size()));
  for (const auto& att : res.attempts) {
    EXPECT_EQ(att.outcome, Outcome::kTimeout);
    EXPECT_EQ(att.exec_duration, 100 * kMs);
  }
  EXPECT_EQ(res.successes, 0);
}

TEST(FaultInjection, InitFailureFailsPendingRequests) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.init_failure_prob = 1.0;  // Every sandbox fails to initialize.
  PlatformSim sim(cfg, 11);
  const auto res = sim.Run(UniformArrivals(1.0, 10 * kSec), PyAesWorkload());
  EXPECT_EQ(res.init_failure_attempts, static_cast<int64_t>(res.attempts.size()));
  EXPECT_EQ(res.successes, 0);
  for (const auto& att : res.attempts) {
    EXPECT_EQ(att.outcome, Outcome::kInitFailure);
    EXPECT_TRUE(att.cold_start);
    EXPECT_GT(att.init_duration, 0);  // The wasted init time is recorded.
    EXPECT_EQ(att.exec_duration, 0);
  }
}

TEST(FaultInjection, OverloadRejectionAtMaxInstances) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.max_instances = 1;
  cfg.faults.reject_on_overload = true;
  // Concurrent burst: one request admitted, the rest rejected instantly.
  PlatformSim sim(cfg, 2);
  const auto res = sim.Run({0, 1'000, 2'000, 3'000}, PyAesWorkload());
  EXPECT_EQ(res.rejected_attempts, 3);
  EXPECT_EQ(res.successes, 1);
  for (const auto& att : res.attempts) {
    if (att.outcome == Outcome::kRejected) {
      EXPECT_EQ(att.exec_duration, 0);
      EXPECT_EQ(att.sandbox_id, -1);
      EXPECT_EQ(att.end, att.dispatched);  // Rejected at arrival.
    }
  }
}

// --- Retries ---

TEST(Retries, RetriesRecoverFailedRequests) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.crash_prob = 0.30;
  cfg.retry.max_attempts = 5;
  PlatformSim sim(cfg, 23);
  const auto res = sim.Run(UniformArrivals(5.0, 60 * kSec), PyAesWorkload());
  EXPECT_GT(res.crash_attempts, 0);
  EXPECT_GT(res.retries, 0);
  // With 5 attempts at 30% failure, nearly everything eventually succeeds.
  EXPECT_GT(res.successes, static_cast<int64_t>(res.requests.size()) * 95 / 100);
  EXPECT_EQ(res.attempts.size(), res.requests.size() + static_cast<size_t>(res.retries));
  for (const auto& r : res.requests) {
    if (r.outcome == Outcome::kOk && r.attempts > 1) {
      EXPECT_EQ(r.last_error, Outcome::kCrash);
    }
  }
}

TEST(Retries, ExhaustionIsTerminal) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.max_exec_duration = 50 * kMs;  // Deterministic failure.
  cfg.retry.max_attempts = 3;
  PlatformSim sim(cfg, 9);
  const auto res = sim.Run({0}, PyAesWorkload());
  EXPECT_EQ(res.attempts.size(), 3u);
  ASSERT_EQ(res.requests.size(), 1u);
  EXPECT_EQ(res.requests[0].outcome, Outcome::kRetriesExhausted);
  EXPECT_EQ(res.requests[0].last_error, Outcome::kTimeout);
  EXPECT_EQ(res.requests[0].attempts, 3);
  // Backoff means attempts are strictly ordered in time.
  EXPECT_GT(res.attempts[1].dispatched, res.attempts[0].end);
  EXPECT_GT(res.attempts[2].dispatched, res.attempts[1].end);
}

TEST(Retries, ClientTimeoutAbandonsSlowAttempt) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.retry.attempt_timeout = 50 * kMs;  // Shorter than execution (~160 ms).
  PlatformSim sim(cfg, 4);
  // Request 0 cold-starts (and is withdrawn while the sandbox initializes,
  // since init takes ~400 ms); request 1 lands on the then-warm sandbox.
  const auto res = sim.Run({0, 5 * kSec}, PyAesWorkload());
  ASSERT_EQ(res.requests.size(), 2u);
  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.requests[0].outcome, Outcome::kTimeout);
  EXPECT_EQ(res.requests[1].outcome, Outcome::kTimeout);
  // Attempt 0 never started: withdrawn from the init queue, no execution.
  EXPECT_TRUE(res.attempts[0].client_abandoned);
  EXPECT_EQ(res.attempts[0].outcome, Outcome::kTimeout);
  EXPECT_EQ(res.attempts[0].exec_duration, 0);
  // Attempt 1 started on a warm sandbox; the platform kept running it to
  // completion after the client left, so the billable record shows the full
  // execution with a successful server-side outcome.
  EXPECT_TRUE(res.attempts[1].client_abandoned);
  EXPECT_EQ(res.attempts[1].outcome, Outcome::kOk);
  EXPECT_GT(res.attempts[1].exec_duration, 50 * kMs);
}

// --- BillableRecord bridges attempts to billing ---

TEST(BillableRecordTest, CopiesAttemptFields) {
  AttemptOutcome att;
  att.outcome = Outcome::kCrash;
  att.attempt = 2;
  att.exec_duration = 80 * kMs;
  att.cold_start = true;
  att.init_duration = 400 * kMs;
  const RequestRecord r = BillableRecord(att, 1.0, 1'769.0);
  EXPECT_EQ(r.outcome, Outcome::kCrash);
  EXPECT_EQ(r.attempt, 2);
  EXPECT_EQ(r.exec_duration, 80 * kMs);
  EXPECT_EQ(r.cpu_time, 80 * kMs);
  EXPECT_TRUE(r.cold_start);
  EXPECT_EQ(r.init_duration, 400 * kMs);
  EXPECT_DOUBLE_EQ(r.alloc_vcpus, 1.0);
  EXPECT_DOUBLE_EQ(r.alloc_mem_mb, 1'769.0);
}

}  // namespace
}  // namespace faascost
