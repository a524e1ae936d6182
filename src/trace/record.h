// Trace record model mirroring the fields of the Huawei Cloud production FaaS
// trace release that the paper's §2 analysis uses: per-request wall-clock
// execution duration, consumed CPU time, CPU/memory utilization relative to a
// fixed per-function allocation, and cold-start lifecycle information.

#ifndef FAASCOST_TRACE_RECORD_H_
#define FAASCOST_TRACE_RECORD_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/units.h"

namespace faascost {

// Terminal outcome of one invocation attempt (or, at the request level, of
// the whole retry sequence). Platforms bill failed attempts too: AWS bills
// duration up to the timeout, fees are charged regardless of outcome, and
// client retries multiply both (see BillingModel::failure).
enum class Outcome : uint8_t {
  kOk = 0,
  kInitFailure,       // The sandbox failed to initialize (cold-start error).
  kCrash,             // The function crashed mid-execution.
  kTimeout,           // Platform-enforced execution timeout, or client gave up.
  kRejected,          // Overload rejection (HTTP 429): never admitted.
  kRetriesExhausted,  // Request-level: every client attempt failed.
  kCircuitOpen,       // Client circuit breaker fast-failed the dispatch;
                      // the attempt never reached the platform (not billed).
  kUpstreamFailed,    // Workflow hop skipped because an upstream hop failed
                      // terminally; never dispatched (not billed).
  kHedgeLoser,        // Speculative duplicate that lost the hedge race; billed
                      // for the duration it ran before cancellation landed.
  kDeadLettered,      // Async hop exhausted platform-side redrives; the final
                      // attempt is billed and the message is DLQ-priced.
};

// Every Outcome value, in enum order. Kept adjacent to the enum so adding a
// value without extending the table is caught by the round-trip test.
inline constexpr Outcome kAllOutcomes[] = {
    Outcome::kOk,          Outcome::kInitFailure,      Outcome::kCrash,
    Outcome::kTimeout,     Outcome::kRejected,         Outcome::kRetriesExhausted,
    Outcome::kCircuitOpen, Outcome::kUpstreamFailed,   Outcome::kHedgeLoser,
    Outcome::kDeadLettered,
};

inline const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kInitFailure:
      return "init_failure";
    case Outcome::kCrash:
      return "crash";
    case Outcome::kTimeout:
      return "timeout";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kRetriesExhausted:
      return "retries_exhausted";
    case Outcome::kCircuitOpen:
      return "circuit_open";
    case Outcome::kUpstreamFailed:
      return "upstream_failed";
    case Outcome::kHedgeLoser:
      return "hedge_loser";
    case Outcome::kDeadLettered:
      return "dead_lettered";
  }
  return "unknown";
}

// Inverse of OutcomeName: parses the serialized outcome token of a JSONL/CSV
// artifact back into the enum, so checkpointed workflow state and exported
// attempt records can be re-ingested. Returns nullopt for unknown tokens
// (including "unknown" itself, which no valid Outcome serializes to).
inline std::optional<Outcome> OutcomeFromName(std::string_view name) {
  for (const Outcome o : kAllOutcomes) {
    if (name == OutcomeName(o)) {
      return o;
    }
  }
  return std::nullopt;
}

// One function invocation as recorded by the provider.
struct RequestRecord {
  int64_t function_id = 0;
  MicroSecs arrival = 0;         // Arrival time within the trace window.
  MicroSecs exec_duration = 0;   // Wall-clock execution duration.
  MicroSecs cpu_time = 0;        // Consumed CPU time (vCPU-microseconds).
  double alloc_vcpus = 0.0;      // Configured vCPU allocation.
  MegaBytes alloc_mem_mb = 0.0;  // Configured memory allocation.
  MegaBytes used_mem_mb = 0.0;   // Average memory actually used.
  MicroSecs init_duration = 0;  // Sandbox initialization time; 0 if warm.
  bool cold_start = false;
  // Failure semantics. For failed attempts, exec_duration is the duration up
  // to the crash/abort point (timeouts run through the full limit), which is
  // what failure-billing rules act on.
  Outcome outcome = Outcome::kOk;
  int attempt = 1;            // 1-based client attempt number.
  double failure_rate = 0.0;  // Per-attempt failure probability of the function.
  // Payload sizes for the network model (src/net). 0 means "unrecorded":
  // simulators then fall back to the NetworkModel's deterministic payload
  // draw (or move nothing when the model is disabled). Not part of the
  // digest-audited record shape, so pinned digests stay valid.
  int64_t req_bytes = 0;   // Client-request body entering the platform.
  int64_t resp_bytes = 0;  // Response body returned to the client.

  // Fraction of the CPU allocation actually consumed over exec_duration.
  double CpuUtilization() const {
    if (exec_duration <= 0 || alloc_vcpus <= 0.0) {
      return 0.0;
    }
    return static_cast<double>(cpu_time) /
           (static_cast<double>(exec_duration) * alloc_vcpus);
  }

  // Fraction of the memory allocation actually used.
  double MemUtilization() const {
    if (alloc_mem_mb <= 0.0) {
      return 0.0;
    }
    return used_mem_mb / alloc_mem_mb;
  }
};
// cold_start, outcome and attempt share one word; a day's trace holds a
// million records.
static_assert(sizeof(RequestRecord) == 96);

// A sandbox lifecycle for the cold-start study (paper Fig. 4): one cold start
// (initialization) followed by the requests served before the sandbox is
// reclaimed. Requests inherit the sandbox's allocation.
struct SandboxLifecycle {
  int64_t function_id = 0;
  double alloc_vcpus = 0.0;
  MegaBytes alloc_mem_mb = 0.0;
  MicroSecs init_duration = 0;
  // Wall-clock execution durations of all requests served in this sandbox
  // (the first one is the request that triggered the cold start).
  std::vector<MicroSecs> request_durations;
};

}  // namespace faascost

#endif  // FAASCOST_TRACE_RECORD_H_
