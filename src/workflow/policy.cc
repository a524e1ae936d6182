#include "src/workflow/policy.h"

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/validate.h"

namespace faascost {

std::vector<std::string> DeadlineBudgetPolicy::Validate() const {
  std::vector<std::string> errors;
  CheckWithin(&errors, "deadline", deadline, 0, kMaxDuration, Ends::kClosed,
              "0 disables, at most a century");
  return errors;
}

std::vector<std::string> HedgePolicy::Validate() const {
  std::vector<std::string> errors;
  CheckWithin(&errors, "hedge_after", hedge_after, 0, kMaxDuration, Ends::kClosed,
              "0 disables, at most a century");
  CheckWithin(&errors, "cancel_latency", cancel_latency, 0, kMaxDuration, Ends::kClosed,
              "a century");
  return errors;
}

std::vector<std::string> AsyncRedrivePolicy::Validate() const {
  std::vector<std::string> errors;
  CheckAtLeast(&errors, "max_redrives", max_redrives, 0);
  CheckWithin(&errors, "redrive_delay", redrive_delay, 0, kMaxDuration, Ends::kClosed,
              "a century");
  return errors;
}

std::vector<std::string> WorkflowPolicy::Validate() const {
  std::vector<std::string> errors;
  AppendErrors(&errors, retry.Validate(), "retry.");
  AppendErrors(&errors, deadline.Validate(), "deadline.");
  AppendErrors(&errors, hedge.Validate(), "hedge.");
  AppendErrors(&errors, redrive.Validate(), "redrive.");
  // Client settings the engine does not model: a hop's timeout and the
  // deadline budget bound an attempt, and no attempt is ever rejected.
  if (retry.attempt_timeout > 0) {
    errors.push_back("retry.attempt_timeout must be 0: the workflow engine models no client "
                     "timeout");
  }
  if (!retry.retry_rejected) {
    errors.push_back("retry.retry_rejected must be true: the workflow engine rejects no "
                     "attempt");
  }
  // Worst case per hop: every client attempt plus one hedge each, or the
  // initial async delivery plus every redrive. Keep both well inside the
  // per-hop RNG stream window.
  const int64_t sync_worst = int64_t{retry.max_attempts} * (hedge.enabled() ? 2 : 1);
  const int async_worst = 1 + redrive.max_redrives;
  if (sync_worst > kMaxAttemptsPerHop / 2) {
    errors.push_back("policy: max_attempts x hedging exceeds " +
                     std::to_string(kMaxAttemptsPerHop / 2) + " attempts per hop");
  }
  if (async_worst > kMaxAttemptsPerHop / 2) {
    errors.push_back("policy: max_redrives exceeds " +
                     std::to_string(kMaxAttemptsPerHop / 2 - 1) + " redrives per hop");
  }
  return errors;
}

}  // namespace faascost
