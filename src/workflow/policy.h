// Resilience policies for the workflow engine and their billing semantics.
//
// Every mechanism here trades extra *billed* work for latency or success
// probability, which is exactly the trade-off the cost model has to expose:
//
//   - RetryPolicy (reused from src/platform): per-hop client retries with
//     backoff and a circuit breaker. Every real attempt bills; kCircuitOpen
//     short-circuits never do. No client timeout: Validate refuses one.
//   - DeadlineBudgetPolicy: an end-to-end workflow deadline. In `propagate`
//     mode the remaining budget travels with the workflow, shrinking each
//     hop's effective timeout and fast-failing (unbilled) hops that cannot
//     fit — the alternative to naive per-hop timeouts that burn the full
//     per-hop limit on a workflow that is already doomed.
//   - HedgePolicy: a speculative duplicate dispatched after a latency
//     threshold; first success wins, the loser is cancelled. Cancellation
//     takes `cancel_latency` to land, so the loser bills for everything it
//     ran until then (and bills in full when it finishes first anyway) —
//     hedging's double-billing exposure.
//   - AsyncRedrivePolicy: platform-side retries of async hops. Each redrive
//     is a fresh billed invocation; exhausting them dead-letters the message
//     (kDeadLettered) with DLQ storage-op fees from WorkflowPricing.

#ifndef FAASCOST_WORKFLOW_POLICY_H_
#define FAASCOST_WORKFLOW_POLICY_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/platform/faults.h"

namespace faascost {

// End-to-end workflow deadline budget.
struct DeadlineBudgetPolicy {
  // Workflow deadline measured from arrival; 0 disables.
  MicroSecs deadline = 0;
  // When set, each hop's effective timeout is min(hop timeout, remaining
  // budget) and hops dispatched with no budget left fail fast *unbilled*
  // (they are never handed to the platform). When clear, the deadline is
  // only checked at workflow completion — hops keep burning their full
  // per-hop timeout on workflows that can no longer succeed.
  bool propagate = true;

  bool enabled() const { return deadline > 0; }
  std::vector<std::string> Validate() const;
};

// Speculative duplicate requests (tail-latency hedging).
struct HedgePolicy {
  // Dispatch one duplicate if the primary attempt has not resolved after
  // this long; 0 disables hedging.
  MicroSecs hedge_after = 0;
  // Time for the loser's cancellation to land after the winner completes.
  // The loser bills for min(its own runtime, time until cancellation) — if
  // it finishes before the cancel arrives, it bills in full.
  MicroSecs cancel_latency = 10 * kMicrosPerMilli;

  bool enabled() const { return hedge_after > 0; }
  std::vector<std::string> Validate() const;
};

// Platform-side retries for async hops, with a dead-letter queue behind them.
struct AsyncRedrivePolicy {
  // Redrives after the initial delivery (SQS maxReceiveCount - 1 style).
  // Every redrive is a separately billed invocation.
  int max_redrives = 2;
  // Delay between a failed delivery and its redrive.
  MicroSecs redrive_delay = kMicrosPerSec;

  std::vector<std::string> Validate() const;
};

// The full per-workflow resilience configuration. One policy applies to every
// hop of every DAG in a run (per-hop heterogeneity comes from HopSpec).
struct WorkflowPolicy {
  // The engine models no client timeout and rejects no attempt: Validate
  // refuses an attempt_timeout and retry_rejected = false.
  RetryPolicy retry;
  DeadlineBudgetPolicy deadline;
  HedgePolicy hedge;
  AsyncRedrivePolicy redrive;

  std::vector<std::string> Validate() const;
};

// Upper bound on attempts a single hop can make in one workflow instance
// (client attempts + hedges + provider redrives). The per-attempt RNG stream
// is `hop * kMaxAttemptsPerHop + attempt_ordinal`, so the bound is what keeps
// streams of different hops disjoint; Validate() enforces policies stay
// comfortably inside it.
inline constexpr int kMaxAttemptsPerHop = 64;

}  // namespace faascost

#endif  // FAASCOST_WORKFLOW_POLICY_H_
