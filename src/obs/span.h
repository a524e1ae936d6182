// Span model and sink interface for cross-layer cost provenance.
//
// A Span is one sim-time-stamped segment of work (or waiting) attributed to a
// request attempt, a sandbox, or a tenant. Simulators emit spans through a
// TraceSink pointer that defaults to null: with no sink attached the
// instrumentation reduces to a pointer test, touches no RNG, and leaves
// results bit-identical to untraced runs. The obs library sits between
// `common` and `trace` in the dependency order, so spans carry outcomes as
// interned C strings (e.g. from OutcomeName()) rather than the trace-layer
// Outcome enum.

#ifndef FAASCOST_OBS_SPAN_H_
#define FAASCOST_OBS_SPAN_H_

#include <cstdint>

#include "src/common/append_log.h"
#include "src/common/units.h"

namespace faascost {

enum class SpanKind {
  kQueueWait,        // Dispatch to execution start (or to terminal rejection).
  kInit,             // Sandbox cold-start initialization.
  kServingOverhead,  // Per-request serving-stack overhead at exec start.
  kExec,             // Function body execution, start to terminal outcome.
  kBackoff,          // Client retry backoff between attempts.
  kDrain,            // Sandbox draining, drain start to death.
  kSandboxLife,      // Sandbox creation to death (or end of run).
  kThrottle,         // Tenant frozen by the CPU bandwidth controller.
  kPreempt,          // Tenant runnable but preempted by co-tenants.
  kWorkflow,         // Workflow instance, first dispatch to terminal outcome.
  kTransfer,         // Network payload moving over the zone topology.
};

const char* SpanKindName(SpanKind kind);

// Track groups: the Chrome-trace `pid` a span renders under. Each group is a
// named process in the exported trace; `Span::track` is the tid within it.
inline constexpr int kTrackGroupClient = 1;         // PlatformSim, per request.
inline constexpr int kTrackGroupSandbox = 2;        // PlatformSim, per sandbox.
inline constexpr int kTrackGroupFleetFunction = 3;  // FleetSim, per function.
inline constexpr int kTrackGroupFleetSandbox = 4;   // FleetSim, per sandbox.
inline constexpr int kTrackGroupTenant = 5;         // HostSim, per tenant.
// WorkflowSim: hop spans share their workflow's tid, so they render nested
// under the kWorkflow root span in the Chrome trace.
inline constexpr int kTrackGroupWorkflow = 6;       // WorkflowSim, per workflow.

const char* TrackGroupName(int group);

struct Span {
  SpanKind kind = SpanKind::kExec;
  int group = kTrackGroupClient;
  int64_t track = 0;

  MicroSecs start = 0;
  MicroSecs duration = 0;

  // Attribution. Fields not meaningful for a given kind stay at defaults.
  int32_t req_idx = -1;
  int32_t attempt = 0;
  int32_t sandbox_id = -1;
  bool cold = false;
  // True on the single span that carries an attempt's billing attribution.
  bool terminal = false;
  // Layer-specific back-reference (PlatformSim: index into result.attempts;
  // FleetSim: index into result.spans for sandbox spans). -1 when unset.
  int64_t ref = -1;
  // Interned outcome string ("" while in flight / not applicable). Must point
  // at static storage; spans never own it.
  const char* status = "";

  // Billed share: filled in by the simulator (FleetSim) or a post-run tagger
  // (core/observe.h for PlatformSim).
  MicroSecs billed_micros = 0;
  Usd billed_usd = 0.0;
};
// The two bools share the word after sandbox_id; a long run keeps millions.
static_assert(sizeof(Span) == 80);

// Spans in emission order. Growing never copies the spans already held.
using SpanLog = AppendLog<Span>;

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Record(const Span& span) = 0;
};

// Default sink: appends every span to a SpanLog, in emission order.
class SpanCollector final : public TraceSink {
 public:
  void Record(const Span& span) override { spans_.push_back(span); }

  const SpanLog& spans() const { return spans_; }
  SpanLog* mutable_spans() { return &spans_; }
  // Keeps the log's chunks for the next run's spans.
  void Clear() { spans_.clear(); }

 private:
  SpanLog spans_;
};

}  // namespace faascost

#endif  // FAASCOST_OBS_SPAN_H_
