// Fleet-level serving simulation: an entire trace day across thousands of
// functions, each with its own sandbox pool and keep-alive lifecycle, packed
// onto host servers. This ties the paper's layers together end to end:
// per-request billing (§2) x keep-alive and cold starts (§3.3) x placement
// and deployment density (§2.2) x provider economics ("these costs are
// ultimately passed on to users through per-unit resource pricing or
// invocation fees").
//
// The per-function serving model is the single-concurrency one (a sandbox
// serves one request at a time; concurrent arrivals fan out to more
// sandboxes), with a fixed keep-alive window after each idle period.

#ifndef FAASCOST_CLUSTER_FLEET_SIM_H_
#define FAASCOST_CLUSTER_FLEET_SIM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/billing/model.h"
#include "src/cluster/host_faults.h"
#include "src/cluster/placement.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/faults.h"
#include "src/trace/record.h"

namespace faascost {

struct FleetSimConfig {
  MicroSecs keepalive = 300LL * kMicrosPerSec;  // Per-sandbox KA window.
  MicroSecs init_duration = 400 * kMicrosPerMilli;  // Cold-start cost.
  // KA-phase cost share of the full allocation (Table 2: 1.0 = run as
  // usual, ~0.03 = freeze/deallocate, GCP-style in between).
  double ka_cost_share = 1.0;
  ServerSpec server;
  PlacementPolicy placement = PlacementPolicy::kBestFit;
  // Provider hardware rate for a fully-utilized (1 vCPU, 2 GB) unit.
  Usd hardware_per_vcpu_second = 7.68e-6;
  Usd hardware_per_gb_second = 8.53e-7;
  // --- Failure injection (fleet-level model: crashes and timeouts) ---
  // Global per-attempt crash probability. A crash aborts the request at a
  // uniform point of its execution and destroys the sandbox, so the retry
  // (and the function's next request) pays a fresh cold start.
  double failure_rate = 0.0;
  // Prefer the trace's per-function failure_rate field (when > 0) over the
  // global rate, so trace-generator heterogeneity carries through.
  bool use_trace_failure_rates = true;
  // Platform-enforced execution timeout; requests running longer are aborted
  // (and billed) at the limit. The sandbox survives a timeout. 0 disables.
  MicroSecs max_exec_duration = 0;
  // Client retries of failed attempts; retries re-enter the arrival stream
  // after backoff and are billed like any other attempt. The fleet models
  // no client timeout and rejects no attempt: Validate refuses an
  // attempt_timeout and retry_rejected = false.
  RetryPolicy retry;
  uint64_t fault_seed = 1234;  // Seed of the fault RNG stream.
  // --- Fleet-level chaos (host failures) ---
  // Seeded host fault domains: sandboxes are pinned to logical hosts and a
  // host loss destroys every resident sandbox (in-flight work crashes, the
  // survivors stampede into cold starts). Disabled by default; a disabled
  // model consumes no randomness, so zero-chaos runs stay bit-identical.
  // Every concurrent arrival gets a sandbox: overload, admission queues and
  // 429s at capacity are PlatformSim's (AdmissionControlConfig).
  HostFaultModelConfig host_faults;
  // Observability hooks (non-owning; the caller keeps them alive through the
  // simulation). Null by default: instrumentation is then one pointer test
  // per attempt, draws no randomness, and results stay bit-identical.
  // Spans land on kTrackGroupFleetFunction (tid = function id) and
  // kTrackGroupFleetSandbox (tid = span index); every attempt's terminal
  // span carries its invoice share, so span USD sums reproduce `revenue`.
  TraceSink* trace_sink = nullptr;
  // Sim-time windowed telemetry (same null-sink contract). Billed-USD
  // recording is co-located with terminal-span pricing, so the series'
  // per-window sums reconcile bitwise against span totals
  // (ReconcileBilledUsd in src/obs/timeseries.h).
  TimeSeries* timeseries = nullptr;
  // Engine flight recorder: per-attempt event counts, queue depth samples
  // (retries only; initial attempts stream from the trace and are never
  // queued), and fault-RNG draw totals (src/obs/engine_profiler.h).
  EngineProfiler* profiler = nullptr;
  // Runtime invariant auditor (non-owning; null = detached, zero overhead
  // beyond one pointer test per attempt). See src/integrity/integrity.h.
  Auditor* auditor = nullptr;
  // Network model (src/net; non-owning, same null contract): every executed
  // attempt's request payload rides internet -> sandbox zone and its
  // response rides back, metered on the monthly-cumulative price ladder.
  // Transfer time extends the *client* path (terminal latency and retry
  // scheduling), not sandbox occupancy — the sandbox is released when the
  // function returns; bytes move through the platform's edge, not the
  // sandbox. The zone is the sandbox's host when host faults are on,
  // ZoneOf(function_id) otherwise. Breaker fast-fails never reach the edge
  // and move nothing.
  // Like TraceSink, the model is caller-owned run state and is NOT archived:
  // checkpoint/resume of a network-attached run is unsupported.
  NetworkModel* network = nullptr;

  // Human-readable config errors; empty when valid. SimulateFleet throws
  // std::invalid_argument on a non-empty result.
  std::vector<std::string> Validate() const;
};

// One sandbox's lifetime, for placement and cost accounting.
struct SandboxSpan {
  int64_t function_id = 0;
  double vcpus = 0.0;
  MegaBytes mem_mb = 0.0;
  MicroSecs created_at = 0;
  MicroSecs destroyed_at = 0;
  MicroSecs busy = 0;   // init + execution time.
  MicroSecs idle = 0;   // Keep-alive time.
  int64_t requests = 0;
  int host = -1;  // Fault domain (only set when host faults are enabled).
};

// The failed attempts by cause come from AttemptFailures. In the fleet an
// init failure is a host that died before init completed. The fleet admits
// every attempt, so its rejected_attempts and queue_timeout_attempts stay 0.
struct FleetResult : AttemptFailures {
  int64_t requests = 0;
  int64_t attempts = 0;  // Dispatched attempts (== requests with no faults).
  int64_t cold_starts = 0;
  int64_t sandboxes = 0;
  int64_t retries = 0;
  int64_t retries_exhausted = 0;  // Requests that terminally failed.
  int64_t successes = 0;          // Requests whose final attempt succeeded.
  // --- Chaos accounting (all zero without host faults or the breaker) ---
  int64_t breaker_trips = 0;           // Closed->open transitions, all functions.
  int64_t host_fault_attempt_kills = 0;   // In-flight attempts killed by host loss.
  int64_t host_fault_sandbox_kills = 0;   // Sandboxes destroyed by host loss.
  int64_t drain_survivals = 0;  // Attempts finished inside a graceful drain window.
  // Per original request: terminal resolution time minus trace arrival
  // (retries and backoff included). Indexed like the trace.
  std::vector<MicroSecs> e2e_latency;
  double sandbox_seconds = 0.0;  // Sum of sandbox lifetimes.
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  int peak_servers = 0;          // Fleet size high-water mark.
  Usd revenue = 0.0;             // User bills under the billing model.
  Usd fee_revenue = 0.0;         // Fee component of the revenue.
  Usd hardware_cost = 0.0;       // Busy at full rate; idle at ka_cost_share.
  double margin = 0.0;
  std::vector<SandboxSpan> spans;  // Per-sandbox accounting.
  // --- Network accounting (all zero with no NetworkModel attached) ---
  // USD fields fold marginal charges in emission order — the same order the
  // telemetry hooks and kTransfer spans see, so per-window reconciliation
  // (ReconcileTransferUsd) is bitwise. `network_bill` is the meter's
  // end-of-run decomposition by transfer class.
  int64_t net_transfers = 0;
  int64_t net_bytes = 0;
  Usd network_transfer_usd = 0.0;
  Usd network_ops_usd = 0.0;
  Usd network_detour_usd = 0.0;
  NetworkBill network_bill;
};

// Simulates sandbox lifecycles for the whole trace (requests must be sorted
// by arrival, else std::invalid_argument; they are grouped per function
// internally), bills every attempt under `billing` (including failed ones,
// per its failure rules), and packs the sandbox spans onto servers to find
// the fleet's peak size. With fault injection enabled, crashed attempts
// destroy their sandbox and client retries re-enter the arrival stream after
// backoff.
FleetResult SimulateFleet(const std::vector<RequestRecord>& trace,
                          const BillingModel& billing, const FleetSimConfig& config);

// Stepwise fleet simulation with checkpoint/resume support. The trace and
// billing model are external inputs: they are NOT serialized into
// checkpoints — `InputDigest()` goes into the checkpoint header and a resume
// must present the identical trace. The trace must outlive the engine (held
// by pointer); the billing model is copied. `SimulateFleet` is the one-shot
// wrapper:
//
//   FleetEngine e(config);
//   e.Start(trace, billing);          // or e.Resume(trace, billing, state)
//   e.RunToEnd();                     // or e.AdvanceUntil(t) in slices
//   FleetResult r = e.Finish();
//
// Running the engine to completion in one shot or across any save/restore
// boundary yields bit-identical results (tested; see DESIGN.md §9).
class FleetEngine {
 public:
  explicit FleetEngine(FleetSimConfig config);
  ~FleetEngine();
  FleetEngine(FleetEngine&&) noexcept;
  FleetEngine& operator=(FleetEngine&&) noexcept;

  // Validates the trace (std::invalid_argument unless sorted by arrival with
  // non-negative exec durations) and points the arrival cursor at its first
  // record; initial attempts stream from it, so memory stays O(live state).
  // Call exactly one of Start/Resume.
  void Start(const std::vector<RequestRecord>& trace, const BillingModel& billing);
  // Restores mutable state from a checkpoint's "state" blob; the caller must
  // pass the same trace and billing model the checkpoint was taken under.
  // A blob with a missing or wrong-typed field throws CheckpointError.
  void Resume(const std::vector<RequestRecord>& trace, const BillingModel& billing,
              const JsonValue& state);

  // Processes every pending attempt with arrival <= t.
  void AdvanceUntil(MicroSecs t);
  void RunToEnd();
  bool done() const;
  MicroSecs now() const;  // Arrival time of the last processed attempt.

  // Closing accounting (sandbox linger, hardware cost, placement packing).
  // Call once, after RunToEnd.
  FleetResult Finish();

  // Serializes the complete mutable state as one JSON object.
  void SaveState(JsonWriter& w);
  // Canonical FNV-1a digest over the same state walk SaveState uses.
  uint64_t Digest();
  uint64_t ConfigHash() const;
  // Digest over the input trace, recorded in checkpoint headers.
  static uint64_t DigestTrace(const std::vector<RequestRecord>& trace);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Revenue/cost split by function-popularity decile: functions sorted by
// request count, bucketed into `buckets` groups of equal function count.
struct EconomicsBucket {
  int64_t functions = 0;
  int64_t requests = 0;
  Usd revenue = 0.0;
  Usd hardware_cost = 0.0;
  double cold_start_rate = 0.0;
};
std::vector<EconomicsBucket> BucketEconomics(const FleetResult& result,
                                             const std::vector<RequestRecord>& trace,
                                             const BillingModel& billing,
                                             const FleetSimConfig& config, int buckets);

}  // namespace faascost

#endif  // FAASCOST_CLUSTER_FLEET_SIM_H_
