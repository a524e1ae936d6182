// Discrete-event serverless platform simulator (paper §3).
//
// Simulates one deployed function on a platform with:
//   - a sandbox lifecycle of initialization (cold start), execution,
//     keep-alive and shutdown,
//   - either the single-concurrency serving model (one request per sandbox,
//     instant demand-driven scale-out; AWS Lambda, Cloudflare) or the
//     multi-concurrency model (requests share sandboxes up to a concurrency
//     limit, windowed-metric autoscaling; GCP, Azure, IBM, Knative),
//   - processor-sharing execution: concurrent CPU-bound requests in one
//     sandbox share its vCPUs, with a configurable contention penalty for
//     context switches and cache interference,
//   - per-architecture serving overhead added to every request,
//   - keep-alive policies that decide how long idle sandboxes survive,
//   - fault injection (init failures, mid-execution crashes, platform
//     execution timeouts, overload rejections) and client retries with
//     exponential backoff, so the billing cost of failure is measurable.

#ifndef FAASCOST_PLATFORM_PLATFORM_SIM_H_
#define FAASCOST_PLATFORM_PLATFORM_SIM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/integrity/integrity.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/autoscaler.h"
#include "src/platform/coldstart.h"
#include "src/platform/faults.h"
#include "src/platform/keepalive.h"
#include "src/platform/serving.h"
#include "src/platform/workload.h"
#include "src/trace/record.h"

namespace faascost {

enum class ConcurrencyModel {
  kSingleConcurrency,
  kMultiConcurrency,
};

// How the ingress picks among warm sandboxes with spare concurrency.
enum class RoutingPolicy {
  kLeastLoaded,  // Idealized: always the emptiest sandbox.
  kRandom,       // Load-balancer reality: uniformly random among eligible.
};

struct PlatformSimConfig {
  std::string name = "platform";
  ConcurrencyModel concurrency = ConcurrencyModel::kSingleConcurrency;
  int concurrency_limit = 1;  // Per-sandbox in-flight cap (multi model).
  RoutingPolicy routing = RoutingPolicy::kRandom;
  double vcpus = 1.0;
  MegaBytes mem_mb = 1024.0;
  ServingOverheadModel serving;
  std::optional<KeepAlivePolicy> keepalive;  // Required.
  // Sandbox initialization (cold start) duration: mean with uniform jitter,
  // or a phase-decomposed per-runtime model when `coldstart` is set.
  MicroSecs init_mean = 600 * kMicrosPerMilli;
  double init_jitter = 0.25;
  std::optional<ColdStartModel> coldstart;
  // Relative slowdown per excess concurrent CPU-bound request (context
  // switching and cache pressure; paper §3.1 notes contention slowdowns are
  // "often worse" than pure sharing). The excess is capped: past a point the
  // working sets already thrash and extra requests add no marginal penalty.
  double contention_coeff = 0.02;
  double contention_excess_cap = 5.0;
  // Metric-driven autoscaling (multi-concurrency platforms only).
  bool autoscaler_enabled = false;
  AutoscalerConfig autoscaler;
  int max_instances = 1000;
  // Fault injection and client retries; the defaults are a fault-free world
  // with no retries, which reproduces the failure-oblivious behavior exactly.
  FaultModelConfig faults;
  RetryPolicy retry;
  // Bounded admission queue at the ingress. When enabled it replaces the
  // binary `faults.reject_on_overload` coin with backpressure: at
  // `max_instances` with no warm capacity, attempts wait (up to queue_depth
  // deep, up to queue_timeout long) and the shed policy picks the victim
  // past the depth. Off by default: the pre-chaos overload behavior.
  AdmissionControlConfig admission;
  // Graceful degradation on scale-down: when set, surplus *busy* sandboxes
  // are drained — they refuse new admissions, finish in-flight work, and
  // anything still running `drain_deadline` later is killed (kCrash).
  // Off by default: scale-down only ever reaps idle sandboxes (pre-chaos).
  bool scaledown_drains_busy = false;
  // Platform drain budget; presets carry per-provider values. Only consulted
  // when a drain actually starts, so it never perturbs default runs.
  MicroSecs drain_deadline = 0;
  // Observability hooks (non-owning; the caller keeps them alive through
  // Run). Each defaults to null, where instrumentation reduces to a pointer
  // test per event, draws no randomness, and leaves results bit-identical
  // to an unhooked run. Spans land on kTrackGroupClient (per request) and
  // kTrackGroupSandbox (per sandbox).
  TraceSink* trace = nullptr;
  // Sim-time windowed telemetry (same null-sink contract). PlatformSim
  // prices spans post-run (core/observe.h TagPlatformSpanBilling), so billed
  // USD enters the series via IngestBilledSpans, not inline.
  TimeSeries* timeseries = nullptr;
  // Engine flight recorder: per-type event counts, event-queue depth
  // samples, and RNG draw totals (src/obs/engine_profiler.h).
  EngineProfiler* profiler = nullptr;
  // Runtime invariant auditor (non-owning, same null-sink contract as the
  // observability hooks): null reduces every check to one pointer test and
  // leaves results bit-identical. Attached, it verifies conservation laws
  // over live simulator state and throws IntegrityViolation on the first
  // inconsistency (see src/integrity and DESIGN.md §9).
  Auditor* auditor = nullptr;

  // Human-readable config errors; empty when valid. PlatformSim's
  // constructor throws std::invalid_argument on a non-empty result.
  std::vector<std::string> Validate() const;
};

// Terminal per-request view: the fields describe the *final* attempt.
struct RequestOutcome {
  MicroSecs arrival = 0;
  MicroSecs start_exec = 0;   // When the sandbox began processing.
  MicroSecs completion = 0;   // Success delivery or final-failure time.
  MicroSecs reported_duration = 0;  // Provider-reported execution duration.
  MicroSecs e2e_latency = 0;        // arrival -> completion (includes queue).
  bool cold_start = false;
  MicroSecs init_duration = 0;
  int sandbox_id = -1;
  // Terminal outcome across the retry sequence: kOk, the single attempt's
  // failure, or kRetriesExhausted when multiple attempts all failed.
  Outcome outcome = Outcome::kOk;
  Outcome last_error = Outcome::kOk;  // Failure mode of the last failed attempt.
  int attempts = 1;                   // Client attempts dispatched.
};

// One platform-side invocation attempt — the auditable unit of billing.
// Every attempt (including failed, rejected, and client-abandoned ones)
// produces one record; use BillingModel failure rules to price it.
struct AttemptOutcome {
  int req_idx = -1;   // Index into PlatformSimResult::requests.
  int attempt = 1;    // 1-based client attempt number.
  MicroSecs dispatched = 0;  // Client send time (arrival or retry re-arrival).
  MicroSecs start_exec = 0;  // When the sandbox began processing; 0 if never.
  MicroSecs end = 0;         // Completion, failure, or withdrawal time.
  // Provider-reported duration up to completion or abort (timeouts run
  // through the full max_exec_duration; crashes stop at the crash point).
  MicroSecs exec_duration = 0;
  MicroSecs init_duration = 0;
  int sandbox_id = -1;
  Outcome outcome = Outcome::kOk;
  bool cold_start = false;
  // The client stopped waiting (attempt_timeout) before this attempt ended;
  // the platform kept executing — and billing — it.
  bool client_abandoned = false;
};
// The three one-byte fields share sandbox_id's word; a run keeps one per
// attempt, and every workflow attempt row embeds one.
static_assert(sizeof(AttemptOutcome) == 56);

struct TimelineSample {
  MicroSecs time = 0;
  int instances = 0;       // Ready + initializing.
  int ready_instances = 0;
  int busy_requests = 0;   // In-flight requests across sandboxes.
  double avg_utilization = 0.0;
};

struct SandboxAccounting {
  int sandbox_id = 0;
  MicroSecs created_at = 0;
  MicroSecs destroyed_at = 0;
  MicroSecs init_time = 0;
  MicroSecs busy_time = 0;  // Time with >= 1 in-flight request.
  MicroSecs idle_time = 0;  // Keep-alive time.
};

// The failed attempts by cause come from AttemptFailures. A client-timeout
// withdrawal counts as a timeout; an abandoned attempt counts under the
// outcome it concludes with server-side, if it fails.
struct PlatformSimResult : AttemptFailures {
  std::vector<RequestOutcome> requests;
  std::vector<AttemptOutcome> attempts;  // One per dispatched attempt.
  std::vector<TimelineSample> timeline;
  std::vector<SandboxAccounting> sandboxes;
  int cold_starts = 0;  // Attempts that triggered a sandbox initialization.
  double total_instance_seconds = 0.0;
  int64_t successes = 0;  // Requests with terminal Outcome::kOk.
  int64_t retries = 0;  // attempts.size() - requests.size().
  // --- Chaos accounting (all zero with admission/breaker/drains off) ---
  int64_t shed_attempts = 0;          // Rejected by a full admission queue.
  int64_t breaker_trips = 0;          // Closed->open transitions.
  int64_t drained_sandboxes = 0;      // Busy sandboxes put into draining.
  int64_t drain_killed_attempts = 0;  // In-flight work killed at the drain deadline.
};

// Stepwise simulator core: the same discrete-event machine PlatformSim::Run
// drives, exposed as an explicit engine so runs can be paused, digested,
// checkpointed, and resumed. `run-to-T2` and `run-to-T1 + checkpoint +
// resume-to-T2` produce bit-identical state (and therefore equal Digest()
// values) because SaveState/LoadState/Digest all walk the complete mutable
// state — event queue included, heap array verbatim — through one shared
// archive template.
class PlatformEngine {
 public:
  // Throws std::invalid_argument when `config.Validate()` reports errors.
  PlatformEngine(PlatformSimConfig config, uint64_t seed);
  ~PlatformEngine();
  PlatformEngine(PlatformEngine&&) noexcept;
  PlatformEngine& operator=(PlatformEngine&&) noexcept;

  // Seeds the event queue from the arrival trace (sorted ascending). Call
  // exactly once on a fresh engine; resumed engines LoadState instead.
  // Throws std::invalid_argument on a negative or decreasing arrival, one
  // past kMaxDuration, or a workload io_wait outside [0, kMaxDuration],
  // which leaves the engine unusable.
  void Start(const std::vector<MicroSecs>& arrivals, const WorkloadSpec& workload);

  // Processes every event with time <= t (deterministic boundary: event
  // ordering is by time with stable heap tie-breaking).
  void AdvanceUntil(MicroSecs t);
  void RunToEnd();

  // All requests terminal and no attempt open.
  bool done() const;
  // Time of the last processed event.
  MicroSecs now() const;

  // Finalizes sandbox accounting and derived counters and returns the
  // result. Call once, after RunToEnd (or at any stopping point).
  PlatformSimResult Finish();

  // Writes the complete mutable state as one JSON object (checkpoint
  // "state" blob).
  void SaveState(JsonWriter& w);
  // Restores state saved by SaveState into a freshly constructed engine
  // with an identical config and seed. Replaces Start.
  void LoadState(const JsonValue& state);
  // Canonical digest over the same state SaveState covers.
  uint64_t Digest();
  // Digest of the effective configuration + seed, stored in checkpoint
  // headers to reject resumes under a different setup.
  uint64_t ConfigHash() const;

  const PlatformSimConfig& config() const;
  uint64_t seed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class PlatformSim {
 public:
  // Throws std::invalid_argument when `config.Validate()` reports errors.
  PlatformSim(PlatformSimConfig config, uint64_t seed);

  // Runs the arrival sequence (sorted ascending) of identical requests of
  // `workload` to completion and returns per-request outcomes plus timeline
  // and sandbox accounting.
  PlatformSimResult Run(const std::vector<MicroSecs>& arrivals, const WorkloadSpec& workload);

  const PlatformSimConfig& config() const { return config_; }

 private:
  PlatformSimConfig config_;
  uint64_t seed_;
};

// Generates `duration`-long arrivals at a constant rate `rps` (deterministic
// spacing), starting at time 0.
std::vector<MicroSecs> UniformArrivals(double rps, MicroSecs duration);

// Poisson arrivals at rate `rps` over `duration`.
std::vector<MicroSecs> PoissonArrivals(double rps, MicroSecs duration, Rng& rng);

// Converts one attempt into a billable trace record under the sandbox's
// allocation, so billing's failure rules can price it. Consumed CPU time is
// approximated as one busy vCPU for the reported duration (exact tracking of
// shared-CPU progress is not needed for the cost-of-failure analysis).
RequestRecord BillableRecord(const AttemptOutcome& attempt, double alloc_vcpus,
                             MegaBytes alloc_mem_mb);

// Empirical cold-start probability at a given idle interval: repeatedly send
// a warm-up request followed by a probe after `idle`; returns the fraction
// of probes that hit a cold sandbox (paper Fig. 9, 100 samples per point).
// Throws std::invalid_argument unless samples > 0.
double ColdStartProbability(const PlatformSimConfig& config, const WorkloadSpec& workload,
                            MicroSecs idle, int samples, uint64_t seed);

}  // namespace faascost

#endif  // FAASCOST_PLATFORM_PLATFORM_SIM_H_
