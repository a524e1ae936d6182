// Deterministic workflow engine: drives DAGs of function invocations through
// the platform/billing primitives and prices every resilience decision.
//
// The engine is a composition layer, not a new platform model: hops execute
// under FleetSim-style per-function warm pools with keep-alive (chained hops
// warm each other's sandboxes), attempts are priced through BillableRecord +
// ComputeInvoice so failure-billing rules apply unchanged, and orchestration
// overhead (state transitions, DLQ storage ops) is priced by WorkflowPricing.
// What it adds is the cross-invocation cost structure single calls cannot
// show: a mid-chain failure bills every upstream hop, retries at hop k re-pay
// hops 1..k-1's sunk cost, hedges double-bill, quorum joins bill stragglers,
// and dead-lettered async hops pay for every redrive plus the DLQ write.
//
// Determinism contract: every stochastic draw comes from a per-attempt Rng
// seeded as DeriveSeed(DeriveSeed(seed, kWorkflowStreamBase + wf),
// hop * kMaxAttemptsPerHop + ordinal) — a pure function of (seed, workflow,
// hop, attempt) independent of event interleaving. A run with zero workflows
// constructs no Rng at all. Events are ordered by (time, sequence) so ties
// resolve identically on every run.

#ifndef FAASCOST_WORKFLOW_WORKFLOW_SIM_H_
#define FAASCOST_WORKFLOW_WORKFLOW_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/billing/catalog.h"
#include "src/billing/model.h"
#include "src/common/append_log.h"
#include "src/common/units.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/span.h"
#include "src/platform/platform_sim.h"
#include "src/trace/record.h"
#include "src/workflow/dag.h"
#include "src/workflow/policy.h"

namespace faascost {

// One availability-zone outage window: at `start`, warm sandboxes in the zone
// are destroyed and in-flight attempts crash (billed to the crash point);
// dispatches during the window fail initialization after the wasted init
// time. Recovery is implicit: once the window ends, cold starts succeed.
struct ZonalOutageSpec {
  int zone = 0;
  MicroSecs start = 0;
  MicroSecs duration = 0;

  std::vector<std::string> Validate() const;
};

struct WorkflowSimConfig {
  // DAG templates; workflow instance i runs dags[i % dags.size()].
  std::vector<WorkflowDag> dags;
  // Number of workflow instances. 0 is the zero-DAG run: no arrivals, no RNG
  // construction, bit-identical empty results.
  int64_t workflows = 0;
  // Workflow arrival rate (uniform spacing, starting at t = 0).
  double wps = 1.0;

  WorkflowPolicy policy;

  // Per-function sandbox model (FleetSim-style single-concurrency pools).
  MicroSecs keepalive = 60 * kMicrosPerSec;
  MicroSecs init_mean = 400 * kMicrosPerMilli;
  double init_jitter = 0.25;  // Init uniform in init_mean * [1-j, 1+j].
  // Engine-wide per-attempt fault rates (HopSpec::failure_rate overrides the
  // crash rate per hop).
  double failure_rate = 0.0;
  double init_failure_rate = 0.0;

  // Availability zones; hop zones are taken modulo this count.
  int zones = 1;
  std::vector<ZonalOutageSpec> outages;

  // Orchestration pricing (state transitions + DLQ ops); per-invocation
  // billing comes from the BillingModel passed to SimulateWorkflows.
  WorkflowPricing pricing;

  // Null-sink hooks: with all detached the run is bit-identical to an
  // unobserved one.
  TraceSink* trace = nullptr;
  Auditor* auditor = nullptr;
  // Zone/region topology + transfer pricing (src/net/model.h). Attached, the
  // engine routes client ingress (dag.input_bytes at arrival), every
  // data-dependency edge payload (dag.child_bytes at producer success), and
  // sink egress (dag.output_bytes, or the model's error body on failure)
  // through the topology: transfer time delays the consumer's dispatch and
  // extends the workflow's client-observed end; transfer bytes walk the
  // tiered meter and land in usd_network. Storage ops are metered per
  // platform-dispatched attempt. Hop zones map into the model via
  // ZoneOf(spec.zone % zones). Caller-owned run state like a TraceSink; the
  // caller mirrors ZonalOutageSpec windows into NetworkModelConfig::outages
  // when the capacity outage should also degrade the network edge.
  NetworkModel* network = nullptr;
  // Sim-time windowed telemetry (src/obs/timeseries.h). Billed USD is
  // recorded in CloseRow — the single point every priced attempt passes
  // through — at the attempt's terminal-span end time, so the series
  // reconciles bitwise against span totals. Waste categories follow
  // DESIGN.md §10: hedge losers, stragglers, dead letters, failed attempts.
  TimeSeries* timeseries = nullptr;

  std::vector<std::string> Validate() const;
};

// One invocation attempt of one hop of one workflow instance. `attempt`
// carries the platform-level fields (req_idx = hop index, attempt = 1-based
// per-hop ordinal across client attempts, hedges, and redrives), so the
// audit can re-price it through BillableRecord + ComputeInvoice.
struct HopAttempt {
  int64_t wf = 0;
  int dag = 0;
  int hop = 0;
  AttemptOutcome attempt;
  bool hedge = false;             // Speculative duplicate (HedgePolicy).
  bool provider_redrive = false;  // Platform-side async redrive.
  // Deadline fast-fail: the remaining budget was <= 0 at dispatch, so the
  // attempt was never handed to the platform (unbilled by policy design).
  bool fail_fast = false;
  // Completed after the quorum join it feeds had already fired (billed).
  bool straggler = false;
  bool outage_killed = false;  // Truncated by a zonal outage.
  // False for rows that never reached the platform (kCircuitOpen,
  // kUpstreamFailed, fail-fast): their usd is 0 by construction.
  bool platform_dispatched = false;
  // Invoice total for this attempt (excludes transition/DLQ fees, which are
  // workflow-level line items).
  Usd usd = 0.0;
};

// Terminal summary of one workflow instance.
struct WorkflowRow {
  int64_t wf = 0;
  int dag = 0;
  // kOk on success; otherwise the root cause — the outcome of the first hop
  // that failed terminally (kRetriesExhausted, kDeadLettered, ...), or
  // kTimeout when the workflow completed past its deadline.
  Outcome outcome = Outcome::kOk;
  bool degraded = false;  // A quorum join fired before every parent finished.
  MicroSecs arrival = 0;
  // Last sink resolution plus any sink-egress transfer time (stragglers may
  // run past it).
  MicroSecs end = 0;
  // Full cost of the instance: attempt invoices + its state-transition fees
  // + its DLQ fees + its network charges (usd_network below).
  Usd usd = 0.0;
  // The network share of `usd`: transfers this instance routed plus the
  // storage ops its attempts metered. 0 when no NetworkModel is attached.
  Usd usd_network = 0.0;
};

struct WorkflowCounters {
  int64_t workflows_started = 0;
  int64_t workflows_succeeded = 0;
  int64_t workflows_failed = 0;
  int64_t degraded_successes = 0;  // Succeeded via a quorum join firing early.
  int64_t dispatched_attempts = 0; // Attempts that reached the platform.
  int64_t client_retries = 0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;    // The duplicate finished first.
  int64_t hedge_losers = 0;  // Billed losers (either side of the race).
  int64_t provider_redrives = 0;
  int64_t dead_letters = 0;
  int64_t upstream_skipped = 0;  // Hops never dispatched (kUpstreamFailed).
  int64_t fail_fast = 0;         // Deadline fast-fails (unbilled).
  int64_t circuit_open = 0;      // Breaker short-circuits (unbilled).
  int64_t breaker_trips = 0;
  int64_t cold_starts = 0;
  int64_t outage_killed = 0;
  int64_t stragglers = 0;  // Attempts billed after their join fired.
};

// One client circuit-breaker state flip, for the breaker-monotonicity
// property test: transitions alternate open/closed per function and carry
// non-decreasing times.
struct BreakerTransition {
  MicroSecs time = 0;
  int dag = 0;
  int hop = 0;
  bool open = false;  // State after the transition.
};

struct WorkflowSimResult {
  // One row per attempt in creation order (104 bytes each); growing never
  // copies the rows already held.
  AppendLog<HopAttempt> attempts;
  std::vector<WorkflowRow> workflows;
  WorkflowCounters counters;
  std::vector<BreakerTransition> breaker_transitions;

  // USD decomposition:
  //   usd_total = usd_attempts + usd_transitions + usd_dlq + usd_network.
  Usd usd_attempts = 0.0;     // Sum of per-attempt invoices.
  Usd usd_transitions = 0.0;  // dispatched_attempts * per_state_transition.
  Usd usd_dlq = 0.0;          // dead_letters * (dlq_write_fee + dlq_read_fee).
  // Network line item: transfer charges + storage-op fees, metered through
  // the attached NetworkModel. Zero when detached. Reconciles bitwise
  // against kTransfer spans / windowed telemetry via ReconcileTransferUsd.
  Usd usd_network = 0.0;
  Usd usd_network_detour = 0.0;  // Outage-rerouting surcharge inside usd_network.
  int64_t net_transfers = 0;
  int64_t net_bytes = 0;
  Usd usd_total = 0.0;
  // Billed-but-wasted money: usd_total minus the invoices (plus transition
  // fees) of kOk, non-straggler attempts inside workflows that ultimately
  // succeeded, and minus successful workflows' network spend net of detour
  // surcharges. This is the quantity deadline budgets and breakers exist to
  // shrink.
  Usd usd_useful = 0.0;
  Usd usd_wasted = 0.0;
  // Named waste components (subsets of usd_wasted's inputs).
  Usd usd_hedge_losers = 0.0;
  Usd usd_stragglers = 0.0;

  MicroSecs makespan = 0;  // Last event in the run (includes stragglers).
};

// Runs `config.workflows` instances to completion. Throws
// std::invalid_argument when config.Validate() reports errors; throws
// IntegrityViolation when an attached auditor finds an inconsistency.
WorkflowSimResult SimulateWorkflows(const WorkflowSimConfig& config,
                                    const BillingModel& billing, uint64_t seed);

}  // namespace faascost

#endif  // FAASCOST_WORKFLOW_WORKFLOW_SIM_H_
