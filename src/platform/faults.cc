#include "src/platform/faults.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/validate.h"

namespace faascost {

bool FaultModelConfig::AnyEnabled() const {
  return init_failure_prob > 0.0 || crash_prob > 0.0 || max_exec_duration > 0 ||
         reject_on_overload;
}

std::vector<std::string> FaultModelConfig::Validate() const {
  std::vector<std::string> errors;
  CheckWithin(&errors, "init_failure_prob", init_failure_prob, 0.0, 1.0);
  CheckWithin(&errors, "crash_prob", crash_prob, 0.0, 1.0);
  CheckWithin(&errors, "max_exec_duration", max_exec_duration, 0, kMaxDuration, Ends::kClosed,
              "0 disables, at most a century");
  return errors;
}

void AttemptFailures::Count(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return;
    case Outcome::kCrash:
      ++crash_attempts;
      break;
    case Outcome::kTimeout:
      ++timeout_attempts;
      break;
    case Outcome::kInitFailure:
      ++init_failure_attempts;
      break;
    case Outcome::kRejected:
      ++rejected_attempts;
      break;
    case Outcome::kCircuitOpen:
      ++circuit_open_attempts;
      break;
    default:
      throw std::logic_error(std::string("no attempt concludes with ") + OutcomeName(outcome));
  }
  ++failed_attempts;
}

std::string AttemptFailures::PartitionText() const {
  return "causes=" + std::to_string(CauseSum()) + " failed=" + std::to_string(failed_attempts) +
         " queue_timeouts=" + std::to_string(queue_timeout_attempts) +
         " timeouts=" + std::to_string(timeout_attempts);
}

MicroSecs RetryPolicy::BackoffDelay(int failed_attempt, Rng& rng) const {
  double bound = static_cast<double>(backoff_base);
  // The exponent is clamped so a runaway attempt counter cannot push the
  // bound to infinity. Validate keeps the cap within a century; the bound is
  // still clamped below the MicroSecs range so the final cast is defined for
  // a caller that never validated its policy.
  const int exponent = std::min(failed_attempt - 1, kBackoffExponentCap);
  for (int i = 0; i < exponent; ++i) {
    bound *= backoff_multiplier;
    if (bound >= static_cast<double>(backoff_cap)) {
      break;
    }
  }
  constexpr double kMaxRepresentable = 9.0e18;  // < INT64_MAX, cast-safe.
  bound = std::min({bound, static_cast<double>(backoff_cap), kMaxRepresentable});
  if (full_jitter) {
    bound *= rng.NextDouble();
  }
  return std::max<MicroSecs>(1, static_cast<MicroSecs>(bound));
}

std::vector<std::string> RetryPolicy::Validate() const {
  std::vector<std::string> errors;
  CheckWithin(&errors, "max_attempts", max_attempts, 1, kMaxRetryAttempts, Ends::kClosed,
              "1 = no retries");
  // 0 < base <= cap <= a century: every delay is at most the cap, so a
  // retry adds at most a century to an engine's clock. A base past the
  // ceiling is its own error, not also the cap's.
  CheckWithin(&errors, "backoff_base", backoff_base, 0, kMaxDuration, Ends::kOpenLow,
              "at most a century");
  CheckAtLeast(&errors, "backoff_multiplier", backoff_multiplier, 1.0);
  CheckWithin(&errors, "backoff_cap", backoff_cap, std::min(backoff_base, kMaxDuration),
              kMaxDuration, Ends::kClosed, "from backoff_base to a century");
  CheckWithin(&errors, "attempt_timeout", attempt_timeout, 0, kMaxDuration, Ends::kClosed,
              "0 disables, at most a century");
  CheckAtLeast(&errors, "breaker_threshold", breaker_threshold, 0, "0 disables");
  if (breaker_threshold > 0) {
    CheckWithin(&errors, "breaker_cooldown", breaker_cooldown, 0, kMaxDuration, Ends::kOpenLow,
                "the breaker is enabled, at most a century");
  }
  return errors;
}

CircuitBreaker::CircuitBreaker(int threshold, MicroSecs cooldown)
    : threshold_(threshold), cooldown_(cooldown) {}

bool CircuitBreaker::AllowDispatch(MicroSecs now) {
  if (threshold_ <= 0) {
    return true;
  }
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now < open_until_) {
        return false;
      }
      state_ = State::kHalfOpen;
      probe_inflight_ = true;
      return true;  // The half-open probe.
    case State::kHalfOpen:
      if (!probe_inflight_) {
        probe_inflight_ = true;
        return true;
      }
      return false;  // One probe at a time.
  }
  return true;
}

void CircuitBreaker::Record(Outcome outcome, MicroSecs now) {
  if (threshold_ <= 0 || outcome == Outcome::kCircuitOpen) {
    return;
  }
  if (outcome == Outcome::kOk) {
    consecutive_failures_ = 0;
    state_ = State::kClosed;
    probe_inflight_ = false;
    return;
  }
  if (state_ == State::kHalfOpen) {
    // The probe (or a straggler) failed: straight back to open.
    state_ = State::kOpen;
    open_until_ = now + cooldown_;
    probe_inflight_ = false;
    ++trips_;
    return;
  }
  if (++consecutive_failures_ >= threshold_ && state_ == State::kClosed) {
    state_ = State::kOpen;
    open_until_ = now + cooldown_;
    consecutive_failures_ = 0;
    ++trips_;
  }
}

std::vector<std::string> AdmissionControlConfig::Validate() const {
  std::vector<std::string> errors;
  if (enabled) {
    CheckAbove(&errors, "queue_depth", queue_depth, 0, "a zero-depth queue admits nothing");
  }
  CheckWithin(&errors, "queue_timeout", queue_timeout, 0, kMaxDuration, Ends::kClosed,
              "0 = wait forever, at most a century");
  return errors;
}

FaultModel::FaultModel(FaultModelConfig config, uint64_t seed)
    : config_(config), rng_(DeriveSeed(seed, kFaultStream)) {}

bool FaultModel::SampleInitFailure() {
  if (config_.init_failure_prob <= 0.0) {
    return false;
  }
  return rng_.Bernoulli(config_.init_failure_prob);
}

bool FaultModel::SampleCrash() {
  if (config_.crash_prob <= 0.0) {
    return false;
  }
  return rng_.Bernoulli(config_.crash_prob);
}

double FaultModel::SampleCrashPoint() { return 1.0 - rng_.NextDouble(); }

}  // namespace faascost
