// Fault injection and client retry semantics (cost-of-failure study).
//
// Real platforms bill failed and timed-out invocations: AWS bills duration up
// to the configured timeout, per-invocation fees are charged regardless of
// outcome, and client retries multiply both request fees and cold starts.
// This module provides the failure side of that equation:
//
//   - FaultModel: a seeded, deterministic source of per-attempt faults —
//     cold-start/init failures, mid-execution crashes (crash point sampled
//     uniformly over the execution's CPU demand), platform-enforced execution
//     timeouts (`max_exec_duration`), and overload rejections (429s) when
//     `max_instances` is saturated.
//   - RetryPolicy: client-side retries with exponential backoff and full
//     jitter plus an optional per-attempt client timeout, so failed or
//     abandoned attempts re-arrive at the platform as new load.
//
// The fault stream draws from its own RNG (forked off the simulation seed),
// so a zero-fault configuration leaves the simulator's random stream — and
// therefore every result — bit-identical to a fault-free build.

#ifndef FAASCOST_PLATFORM_FAULTS_H_
#define FAASCOST_PLATFORM_FAULTS_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/trace/record.h"

namespace faascost {

struct FaultModelConfig {
  // Probability that a fresh sandbox fails to initialize. The pending
  // requests fail with Outcome::kInitFailure after the (wasted) init time.
  double init_failure_prob = 0.0;
  // Per-attempt probability of a mid-execution crash. The crash point is
  // sampled uniformly over the attempt's CPU demand.
  double crash_prob = 0.0;
  // Whether a crash takes the whole sandbox down with it (process death):
  // co-resident in-flight requests also fail, and the next arrival pays a
  // cold start. This is what amplifies cold starts under failure.
  bool crash_kills_sandbox = true;
  // Platform-enforced execution timeout; attempts running longer are aborted
  // with Outcome::kTimeout. 0 disables.
  MicroSecs max_exec_duration = 0;
  // Reject new arrivals with Outcome::kRejected (HTTP 429) when the platform
  // is at `max_instances` and no sandbox has spare capacity. When false
  // (default, the fault-free baseline), arrivals queue or scale out
  // unconditionally.
  bool reject_on_overload = false;

  // True if any fault mechanism can fire.
  bool AnyEnabled() const;
  // Human-readable config errors; empty when valid.
  std::vector<std::string> Validate() const;
};

// Client-side retry policy: serial attempts with exponential backoff, plus an
// optional circuit breaker that fast-fails dispatches while the service is
// known-bad (capping retry storms at the source).
struct RetryPolicy {
  int max_attempts = 1;  // Total attempts including the first; 1 = no retry.
  // Backoff before attempt k+1: min(cap, base * multiplier^(k-1)), with full
  // jitter (uniform in [0, that bound]) when `full_jitter` is set. The
  // exponent is clamped (kBackoffExponentCap) so absurd attempt counts can
  // never overflow the computation; the cap is the max_backoff clamp.
  MicroSecs backoff_base = 100 * kMicrosPerMilli;
  double backoff_multiplier = 2.0;
  MicroSecs backoff_cap = 10LL * kMicrosPerSec;
  bool full_jitter = true;
  // Client-side timeout per attempt, measured from dispatch. On expiry the
  // client abandons the attempt and retries (or gives up); the platform may
  // keep executing — and billing — the abandoned attempt. 0 disables.
  MicroSecs attempt_timeout = 0;
  // Whether 429 rejections are retried (they usually are, which is what
  // turns overload into retry storms).
  bool retry_rejected = true;
  // --- Circuit breaker (client side) ---
  // Trip after this many consecutive client-observed failures; while open,
  // dispatches fail fast with Outcome::kCircuitOpen (never billed). After
  // `breaker_cooldown` a single half-open probe is let through: success
  // closes the breaker, failure re-opens it for another cooldown. 0 disables.
  int breaker_threshold = 0;
  MicroSecs breaker_cooldown = 30LL * kMicrosPerSec;

  bool enabled() const {
    return max_attempts > 1 || attempt_timeout > 0 || breaker_threshold > 0;
  }
  // Backoff delay before attempt number `failed_attempt + 1`.
  MicroSecs BackoffDelay(int failed_attempt, Rng& rng) const;
  // Human-readable config errors; empty when valid.
  std::vector<std::string> Validate() const;
};

// Largest exponent applied in BackoffDelay: 2^62 microseconds is ~146k years,
// far past any cap, so clamping here loses nothing while keeping the repeated
// multiplication (and the MicroSecs cast) finite for any attempt count.
inline constexpr int kBackoffExponentCap = 62;

// Serializable snapshot of a CircuitBreaker (checkpoint/resume support).
// `state` carries the State enum as an int to keep the struct a plain POD.
struct CircuitBreakerState {
  int state = 0;
  int consecutive_failures = 0;
  MicroSecs open_until = 0;
  bool probe_inflight = false;
  int64_t trips = 0;
};

// Runtime state of the RetryPolicy circuit breaker. One instance represents
// one client fleet's view of one function. Short-circuited dispatches do not
// feed back into the state; only real outcomes do.
class CircuitBreaker {
 public:
  CircuitBreaker(int threshold, MicroSecs cooldown);

  // Snapshot / restore for checkpointing. Thresholds come from config and
  // are not part of the snapshot.
  CircuitBreakerState SaveState() const;
  void LoadState(const CircuitBreakerState& st);

  // Whether a dispatch at `now` may proceed. While open this returns false
  // until the cooldown elapses, then admits exactly one half-open probe
  // (subsequent calls return false until that probe's outcome is recorded).
  bool AllowDispatch(MicroSecs now);
  // Client-observed outcome of a dispatched (admitted) attempt.
  void RecordSuccess();
  void RecordFailure(MicroSecs now);

  bool enabled() const { return threshold_ > 0; }
  int64_t trips() const { return trips_; }
  // Last acted-upon state (transitions happen lazily inside AllowDispatch);
  // the workflow engine logs its open/close transitions.
  bool open() const { return state_ == State::kOpen; }

 private:
  enum class State { kClosed, kOpen, kHalfOpen };
  int threshold_ = 0;
  MicroSecs cooldown_ = 0;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  MicroSecs open_until_ = 0;
  bool probe_inflight_ = false;
  int64_t trips_ = 0;
};

// Walks a breaker's five snapshot fields with a state archiver
// (src/integrity/archive.h), under the keys every engine's checkpoint uses.
template <typename Ar>
void ArchiveBreaker(Ar& ar, CircuitBreaker& breaker) {
  CircuitBreakerState st = breaker.SaveState();
  ar.Field("state", st.state);
  ar.Field("consecutive_failures", st.consecutive_failures);
  ar.Field("open_until", st.open_until);
  ar.Field("probe_inflight", st.probe_inflight);
  ar.Field("trips", st.trips);
  if constexpr (Ar::kLoading) {
    breaker.LoadState(st);
  }
}

// How a full admission queue sheds load.
enum class ShedPolicy {
  kRejectNewest,  // The incoming attempt is rejected (classic tail drop).
  kRejectOldest,  // The head of the queue is rejected to admit the newcomer.
};

inline const char* ShedPolicyName(ShedPolicy p) {
  return p == ShedPolicy::kRejectNewest ? "reject-newest" : "reject-oldest";
}

// Bounded admission queue in front of a function's sandboxes, replacing the
// binary reject-everything-at-capacity coin (`reject_on_overload`) with
// backpressure: at capacity, up to `queue_depth` attempts wait; beyond that
// the shed policy picks a victim (Outcome::kRejected), and attempts that wait
// longer than `queue_timeout` fail with Outcome::kTimeout.
struct AdmissionControlConfig {
  bool enabled = false;        // Off = the pre-chaos overload behavior.
  int queue_depth = 0;         // Must be > 0 when enabled.
  MicroSecs queue_timeout = 0; // 0 = queued attempts wait forever.
  ShedPolicy shed = ShedPolicy::kRejectNewest;

  // Human-readable config errors; empty when valid.
  std::vector<std::string> Validate() const;
};

// Deterministic fault sampler. All draws come from an internal RNG seeded at
// construction, so fault sequences are reproducible and independent of the
// simulator's own stochastic stream.
class FaultModel {
 public:
  FaultModel(FaultModelConfig config, uint64_t seed);

  // Samples whether a fresh sandbox's initialization fails. Draws from the
  // RNG only when init_failure_prob > 0.
  bool SampleInitFailure();
  // Samples whether an attempt will crash mid-execution. Draws only when
  // crash_prob > 0.
  bool SampleCrash();
  // Crash point as a fraction of the attempt's CPU demand, uniform in (0, 1].
  double SampleCrashPoint();

  const FaultModelConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

 private:
  FaultModelConfig config_;
  Rng rng_;
};

}  // namespace faascost

#endif  // FAASCOST_PLATFORM_FAULTS_H_
