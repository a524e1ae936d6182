#include "src/platform/platform_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <iterator>
#include <limits>
#include <queue>
#include <stdexcept>

#include "src/common/validate.h"
#include "src/integrity/archive.h"
#include "src/integrity/digest.h"

namespace faascost {

namespace {

enum class EventType {
  kArrival,
  kInitDone,
  kSandboxNext,
  kKaExpire,
  kScalerEval,
  kSample,
  kRetryArrival,   // req_idx = original request index.
  kExecTimeout,    // req_idx = attempt index (platform-enforced timeout).
  kClientTimeout,  // req_idx = attempt index (client abandons the attempt).
  kQueueTimeout,   // req_idx = attempt index (admission queue wait expired).
  kDrainDeadline,  // sandbox_id = draining sandbox whose budget is up.
};

// Profiler names, in EventType declaration order.
constexpr const char* kEventTypeNames[] = {
    "arrival",       "init_done",     "sandbox_next",  "ka_expire",
    "scaler_eval",   "sample",        "retry_arrival", "exec_timeout",
    "client_timeout", "queue_timeout", "drain_deadline",
};

struct Event {
  MicroSecs time = 0;
  EventType type = EventType::kArrival;
  int sandbox_id = -1;
  uint64_t gen = 0;
  int req_idx = -1;

  bool operator>(const Event& other) const { return time > other.time; }
};

struct InFlightReq {
  int req_idx = -1;
  int attempt_idx = -1;        // Index into PlatformSimResult::attempts.
  double remaining_cpu = 0.0;  // Microseconds of CPU at full-core speed.
  bool in_cpu_phase = false;
  bool will_crash = false;  // remaining_cpu was truncated at the crash point.
  MicroSecs fixed_end = 0;  // End of the fixed (overhead + I/O) phase.
};

struct SandboxState {
  int id = 0;
  bool dead = false;
  bool initializing = true;
  bool draining = false;     // Refusing admissions; dies when inflight empties.
  bool init_failed = false;  // Fault-injected: init ends in failure.
  MicroSecs created_at = 0;
  MicroSecs ready_at = 0;
  MicroSecs drain_started = 0;  // Meaningful only while draining.
  std::vector<InFlightReq> inflight;
  // Entries of `inflight` in their CPU phase. Derived: kept by the inflight
  // helpers, rebuilt on load, never archived.
  int cpu_phase = 0;
  std::vector<int> pending_local;  // Attempts waiting for this sandbox's init.
  MicroSecs last_advance = 0;
  double rate = 0.0;  // Cached per-request CPU rate.
  uint64_t gen = 0;
  MicroSecs ka_deadline = -1;
  int64_t served = 0;
  MicroSecs busy_time = 0;
  MicroSecs idle_time = 0;
  MicroSecs busy_snapshot = 0;  // busy_time at the previous metric sample.
};

// priority_queue with the protected underlying container exposed, so
// checkpoints serialize the heap array verbatim: a restored queue pops in
// exactly the original order, tie-breaking included.
struct EventQueue
    : std::priority_queue<Event, std::vector<Event>, std::greater<Event>> {
  std::vector<Event>& raw() { return c; }
  const std::vector<Event>& raw() const { return c; }
};

// --- Shared archive helpers (save / load / digest through one walker) ---

// An integer container (ids, counters or flags) as one int64 array.
template <typename Ar, typename Ints>
void ArchiveInts(Ar& ar, std::string_view key, Ints& ints) {
  std::vector<int64_t> values(ints.begin(), ints.end());
  ar.I64Vec(key, values);
  if constexpr (Ar::kLoading) {
    ints.clear();
    for (const int64_t v : values) {
      ints.push_back(static_cast<typename Ints::value_type>(v));
    }
  }
}

template <typename Ar>
void ArchiveKeepAlive(Ar& ar, std::string_view key, KeepAlivePolicy& policy) {
  std::vector<int64_t> st;
  policy.SaveState(&st);
  ar.I64Vec(key, st);
  if constexpr (Ar::kLoading) {
    policy.LoadState(st);
  }
}

uint64_t HashPlatformConfig(const PlatformSimConfig& c, uint64_t seed) {
  StateDigest d;
  d.MixLabel("platform-config-v1");
  d.MixU64(seed);
  d.MixStr(c.name);
  d.MixI64(static_cast<int64_t>(c.concurrency));
  d.MixI64(c.concurrency_limit);
  d.MixI64(static_cast<int64_t>(c.routing));
  d.MixDouble(c.vcpus);
  d.MixDouble(c.mem_mb);
  d.MixI64(c.init_mean);
  d.MixDouble(c.init_jitter);
  d.MixBool(c.coldstart != nullptr);
  d.MixDouble(c.contention_coeff);
  d.MixDouble(c.contention_excess_cap);
  d.MixBool(c.autoscaler_enabled);
  d.MixDouble(c.autoscaler.target_utilization);
  d.MixI64(c.autoscaler.metric_window);
  d.MixI64(c.autoscaler.sample_interval);
  d.MixI64(c.autoscaler.eval_interval);
  d.MixI64(c.autoscaler.action_cooldown);
  d.MixI64(c.autoscaler.max_instances);
  d.MixI64(c.max_instances);
  d.MixDouble(c.faults.init_failure_prob);
  d.MixDouble(c.faults.crash_prob);
  d.MixBool(c.faults.crash_kills_sandbox);
  d.MixI64(c.faults.max_exec_duration);
  d.MixBool(c.faults.reject_on_overload);
  d.MixI64(c.retry.max_attempts);
  d.MixI64(c.retry.backoff_base);
  d.MixDouble(c.retry.backoff_multiplier);
  d.MixI64(c.retry.backoff_cap);
  d.MixBool(c.retry.full_jitter);
  d.MixI64(c.retry.attempt_timeout);
  d.MixBool(c.retry.retry_rejected);
  d.MixI64(c.retry.breaker_threshold);
  d.MixI64(c.retry.breaker_cooldown);
  d.MixBool(c.admission.enabled);
  d.MixI64(c.admission.queue_depth);
  d.MixI64(c.admission.queue_timeout);
  d.MixI64(static_cast<int64_t>(c.admission.shed));
  d.MixBool(c.scaledown_drains_busy);
  d.MixI64(c.drain_deadline);
  d.MixStr(c.keepalive != nullptr ? c.keepalive->name() : "");
  return d.value();
}

AutoscalerConfig MakeScalerConfig(const PlatformSimConfig& config) {
  AutoscalerConfig scaler_config = config.autoscaler;
  scaler_config.per_instance_capacity =
      config.vcpus * config.autoscaler.target_utilization;
  scaler_config.max_instances =
      std::min(scaler_config.max_instances, config.max_instances);
  return scaler_config;
}

}  // namespace

std::vector<std::string> PlatformSimConfig::Validate() const {
  std::vector<std::string> errors;
  CheckAbove(&errors, "vcpus", vcpus, 0.0);
  CheckAbove(&errors, "mem_mb", mem_mb, 0.0);
  CheckAtLeast(&errors, "concurrency_limit", concurrency_limit, 1);
  CheckAtLeast(&errors, "max_instances", max_instances, 1);
  if (coldstart == nullptr) {
    CheckAbove(&errors, "init_mean", init_mean, 0, "no cold-start model is set");
  }
  CheckWithin(&errors, "init_jitter", init_jitter, 0.0, 1.0, Ends::kOpenHigh);
  CheckAtLeast(&errors, "contention_coeff", contention_coeff, 0.0);
  CheckAtLeast(&errors, "contention_excess_cap", contention_excess_cap, 0.0);
  if (keepalive == nullptr) {
    errors.push_back("a keepalive policy is required");
  }
  // kSample re-arms every sample_interval whether or not scaling is on.
  CheckAbove(&errors, "autoscaler.sample_interval", autoscaler.sample_interval, 0);
  CheckAbove(&errors, "autoscaler.eval_interval", autoscaler.eval_interval, 0);
  CheckAbove(&errors, "autoscaler.metric_window", autoscaler.metric_window, 0);
  CheckAtLeast(&errors, "autoscaler.action_cooldown", autoscaler.action_cooldown, 0);
  CheckWithin(&errors, "autoscaler.target_utilization", autoscaler.target_utilization, 0.0,
              1.0, Ends::kOpenLow);
  CheckAtLeast(&errors, "autoscaler.max_instances", autoscaler.max_instances, 1);
  AppendErrors(&errors, faults.Validate(), "faults: ");
  AppendErrors(&errors, retry.Validate(), "retry: ");
  AppendErrors(&errors, admission.Validate(), "admission: ");
  CheckAtLeast(&errors, "drain_deadline", drain_deadline, 0, "0 = drains kill at once");
  return errors;
}

PlatformSim::PlatformSim(PlatformSimConfig config, uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  ThrowIfInvalid("PlatformSimConfig", config_.Validate());
}

struct PlatformEngine::Impl {
  PlatformSimConfig config;
  uint64_t seed;
  WorkloadSpec workload;

  PlatformSimResult result;
  Rng rng;
  // Faults draw from their own stream: a zero-fault run leaves the main
  // stream — and therefore every result — identical to a fault-free build.
  FaultModel faults;
  // One client fleet, one function: a single shared breaker. Disabled
  // (threshold 0) it never gates, records, or trips.
  CircuitBreaker breaker;
  AutoscalerConfig scaler_config;
  WindowedAutoscaler scaler;

  EventQueue queue;
  std::vector<SandboxState> sandboxes;
  // Ids of the non-dead sandboxes, ascending. Derived like cpu_phase.
  // Event handlers walk this, never `sandboxes`. The order matters: random
  // routing draws once per eligible sandbox in walk order, and least-loaded
  // ties go to the lowest id.
  std::vector<int> live;
  std::deque<int> global_queue;  // Attempts waiting for capacity (multi model).
  std::vector<int> next_attempt_no;
  std::vector<uint8_t> attempt_open;     // Server side not yet concluded.
  std::vector<uint8_t> attempt_started;  // Admitted to a sandbox.
  size_t terminal = 0;        // Requests with a terminal client outcome.
  int64_t open_attempts = 0;  // Dispatched attempts not yet concluded.
  MicroSecs now = 0;
  MicroSecs last_scale_action = std::numeric_limits<MicroSecs>::min() / 2;
  int64_t arrivals_since_sample = 0;
  MicroSecs last_completion = -1;  // For idle-interval feedback to the KA policy.
  int64_t events_processed = 0;
  bool multi = false;
  bool started = false;
  bool finished = false;

  // --- Observability and integrity hooks (no-ops when null) ---
  TraceSink* trace = nullptr;
  TimeSeries* ts = nullptr;
  EngineProfiler* prof = nullptr;
  Auditor* auditor = nullptr;

  Impl(PlatformSimConfig cfg, uint64_t sd)
      : config(std::move(cfg)),
        seed(sd),
        rng(sd),
        faults(config.faults, sd),
        breaker(config.retry.breaker_threshold, config.retry.breaker_cooldown),
        scaler_config(MakeScalerConfig(config)),
        scaler(scaler_config),
        multi(config.concurrency == ConcurrencyModel::kMultiConcurrency),
        trace(config.trace),
        ts(config.timeseries),
        prof(config.profiler),
        auditor(config.auditor) {
    for (size_t i = 0; prof != nullptr && i < std::size(kEventTypeNames); ++i) {
      prof->RegisterEventType(static_cast<int>(i), kEventTypeNames[i]);
    }
  }

  bool Done() const { return terminal == result.requests.size() && open_attempts == 0; }

  // One span on the request's client track. `term` marks the attempt's
  // terminal span — the one the billing tagger attributes the invoice to.
  void EmitClientSpan(SpanKind kind, MicroSecs start, MicroSecs duration,
                      int attempt_idx, const char* status, bool term) {
    if (trace == nullptr) {
      return;
    }
    const AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
    Span sp;
    sp.kind = kind;
    sp.group = kTrackGroupClient;
    sp.track = att.req_idx;
    sp.start = start;
    sp.duration = duration;
    sp.req_idx = att.req_idx;
    sp.attempt = att.attempt;
    sp.sandbox_id = att.sandbox_id;
    sp.ref = attempt_idx;
    sp.status = status;
    sp.cold = att.cold_start;
    sp.terminal = term;
    trace->Record(sp);
  }

  // One span on the sandbox's track, from `start` to now. Only init spans
  // are cold.
  void EmitSandboxSpan(SpanKind kind, const SandboxState& s, MicroSecs start,
                       const char* status) {
    if (trace == nullptr) {
      return;
    }
    Span sp;
    sp.kind = kind;
    sp.group = kTrackGroupSandbox;
    sp.track = s.id;
    sp.start = start;
    sp.duration = now - start;
    sp.sandbox_id = s.id;
    sp.status = status;
    sp.cold = kind == SpanKind::kInit;
    trace->Record(sp);
  }

  // Closes out a sandbox: marks it dead, drops it from `live`, and emits its
  // drain and lifetime spans. Every death site funnels through here.
  void RetireSandbox(SandboxState& s) {
    s.dead = true;
    const auto it = std::lower_bound(live.begin(), live.end(), s.id);
    assert(it != live.end() && *it == s.id);
    live.erase(it);
    if (s.draining) {
      EmitSandboxSpan(SpanKind::kDrain, s, s.drain_started, "");
    }
    EmitSandboxSpan(SpanKind::kSandboxLife, s, s.created_at,
                    s.init_failed ? OutcomeName(Outcome::kInitFailure) : "");
  }

  // Recount of `cpu_phase`, for rebuilding and auditing it.
  static int CpuPhaseCount(const SandboxState& s) {
    int k = 0;
    for (const auto& r : s.inflight) {
      if (r.in_cpu_phase) {
        ++k;
      }
    }
    return k;
  }

  // Every edit of a sandbox's `inflight` goes through these, which keep
  // `cpu_phase` in step.
  static void AddInflight(SandboxState& s, const InFlightReq& r) {
    s.inflight.push_back(r);
    s.cpu_phase += r.in_cpu_phase ? 1 : 0;
  }

  static void RemoveInflight(SandboxState& s, size_t pos) {
    s.cpu_phase -= s.inflight[pos].in_cpu_phase ? 1 : 0;
    s.inflight.erase(s.inflight.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  static void ClearInflight(SandboxState& s) {
    s.inflight.clear();
    s.cpu_phase = 0;
  }

  static void EnterCpuPhase(SandboxState& s, InFlightReq& r) {
    r.in_cpu_phase = true;
    ++s.cpu_phase;
  }

  double ComputeRate(const SandboxState& s) const {
    const int k = s.cpu_phase;
    if (k == 0) {
      return 0.0;
    }
    double rate = std::min(1.0, config.vcpus / static_cast<double>(k));
    const double excess = std::min(static_cast<double>(k) - config.vcpus,
                                   config.contention_excess_cap);
    if (excess > 0.0) {
      rate /= 1.0 + config.contention_coeff * excess;
    }
    return rate;
  }

  // Brings a live sandbox's clock, busy/idle time and CPU progress up to
  // `now`. A dead sandbox keeps its clock at its retirement time.
  void Advance(SandboxState& s) {
    const MicroSecs dt = now - s.last_advance;
    if (dt <= 0 || s.dead) {
      return;
    }
    if (!s.initializing) {
      if (s.inflight.empty()) {
        s.idle_time += dt;
      } else {
        s.busy_time += dt;
      }
    }
    if (s.rate > 0.0) {
      for (auto& r : s.inflight) {
        if (r.in_cpu_phase) {
          r.remaining_cpu -= s.rate * static_cast<double>(dt);
        }
      }
    }
    s.last_advance = now;
  }

  void ScheduleNext(SandboxState& s) {
    if (s.dead || s.initializing || s.inflight.empty()) {
      return;
    }
    MicroSecs next = -1;
    for (const auto& r : s.inflight) {
      MicroSecs t = 0;
      if (r.in_cpu_phase) {
        if (s.rate <= 0.0) {
          continue;
        }
        t = now + static_cast<MicroSecs>(std::ceil(std::max(0.0, r.remaining_cpu) / s.rate));
        t = std::max(t, now + 1);
      } else {
        t = std::max(r.fixed_end, now);
      }
      if (next < 0 || t < next) {
        next = t;
      }
    }
    if (next >= 0) {
      ++s.gen;
      queue.push({next, EventType::kSandboxNext, s.id, s.gen});
    }
  }

  int ReadyCount() const {
    return static_cast<int>(std::count_if(live.begin(), live.end(), [&](int id) {
      const SandboxState& s = sandboxes[static_cast<size_t>(id)];
      return !s.initializing && !s.draining;
    }));
  }

  int AliveCount() const { return static_cast<int>(live.size()); }

  SandboxState& CreateSandbox() {
    SandboxState s;
    s.id = static_cast<int>(sandboxes.size());
    s.created_at = now;
    s.last_advance = now;
    s.init_failed = faults.SampleInitFailure();
    MicroSecs init = 0;
    if (config.coldstart != nullptr) {
      init = config.coldstart->Sample(rng).total;
    } else {
      const double jitter = rng.Uniform(-config.init_jitter, config.init_jitter);
      init = std::max<MicroSecs>(
          1,
          static_cast<MicroSecs>(static_cast<double>(config.init_mean) * (1.0 + jitter)));
    }
    s.ready_at = now + init;
    live.push_back(s.id);  // Ids only grow, so `live` stays ascending.
    sandboxes.push_back(std::move(s));
    SandboxState& ref = sandboxes.back();
    queue.push({ref.ready_at, EventType::kInitDone, ref.id, ref.gen});
    return ref;
  }

  // Starts processing the attempt on a ready sandbox at `now`.
  void StartAttempt(SandboxState& s, int attempt_idx, bool cold) {
    AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
    RequestOutcome& out = result.requests[static_cast<size_t>(att.req_idx)];
    attempt_started[static_cast<size_t>(attempt_idx)] = 1;
    att.sandbox_id = s.id;
    att.start_exec = now;
    att.cold_start = cold;
    att.init_duration = cold ? s.ready_at - s.created_at : 0;
    out.sandbox_id = s.id;
    out.start_exec = now;
    out.cold_start = cold;
    out.init_duration = att.init_duration;
    if (trace != nullptr && now > att.dispatched) {
      EmitClientSpan(SpanKind::kQueueWait, att.dispatched, now - att.dispatched,
                     attempt_idx, "", /*term=*/false);
    }
    if (ts != nullptr) {
      ts->RecordDispatch(now, cold);
    }
    InFlightReq r;
    r.req_idx = att.req_idx;
    r.attempt_idx = attempt_idx;
    double cpu = static_cast<double>(workload.cpu_time);
    if (workload.cpu_jitter > 0.0) {
      cpu *= 1.0 + rng.Uniform(-workload.cpu_jitter, workload.cpu_jitter);
    }
    r.remaining_cpu = std::max(1.0, cpu);
    const MicroSecs overhead = config.serving.Sample(config.vcpus, rng);
    r.fixed_end = now + overhead + workload.io_wait;
    r.in_cpu_phase = r.fixed_end <= now;
    if (trace != nullptr && overhead > 0) {
      EmitClientSpan(SpanKind::kServingOverhead, now, overhead, attempt_idx, "",
                     /*term=*/false);
    }
    if (config.faults.crash_prob > 0.0 && faults.SampleCrash()) {
      // Crash point uniform over the attempt's CPU demand: the attempt fails
      // once the truncated work finishes, billed up to that point.
      r.will_crash = true;
      r.remaining_cpu = std::max(1.0, r.remaining_cpu * faults.SampleCrashPoint());
    }
    AddInflight(s, r);
    ++s.served;
    s.ka_deadline = -1;
    if (config.faults.max_exec_duration > 0) {
      queue.push({now + config.faults.max_exec_duration, EventType::kExecTimeout, s.id, 0,
                  attempt_idx});
    }
  }

  void CountFailure(Outcome oc) {
    ++result.failed_attempts;
    switch (oc) {
      case Outcome::kInitFailure:
        ++result.init_failure_attempts;
        break;
      case Outcome::kCrash:
        ++result.crash_attempts;
        break;
      case Outcome::kTimeout:
        ++result.timeout_attempts;
        break;
      case Outcome::kRejected:
        ++result.rejected_attempts;
        break;
      case Outcome::kCircuitOpen:
        ++result.circuit_open_attempts;
        break;
      default:
        break;
    }
  }

  // Client-side resolution of a failed (or abandoned) attempt: schedule a
  // retry, or conclude the request.
  void ResolveClient(int attempt_idx, Outcome oc) {
    const AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
    RequestOutcome& out = result.requests[static_cast<size_t>(att.req_idx)];
    out.last_error = oc;
    if (breaker.enabled() && oc != Outcome::kCircuitOpen) {
      // Real client-observed failures feed the breaker; its own
      // short-circuits must not, or one trip would loop forever.
      breaker.RecordFailure(now);
    }
    const bool retryable = oc != Outcome::kRejected || config.retry.retry_rejected;
    if (retryable && att.attempt < config.retry.max_attempts) {
      const MicroSecs delay = config.retry.BackoffDelay(att.attempt, faults.rng());
      if (trace != nullptr) {
        EmitClientSpan(SpanKind::kBackoff, now, delay, attempt_idx, "", /*term=*/false);
      }
      if (ts != nullptr) {
        ts->RecordRetry(now);
      }
      queue.push({now + delay, EventType::kRetryArrival, -1, 0, att.req_idx});
      return;
    }
    out.outcome = att.attempt > 1 ? Outcome::kRetriesExhausted : oc;
    out.completion = now;
    out.reported_duration = att.exec_duration;
    out.e2e_latency = now - out.arrival;
    out.sandbox_id = att.sandbox_id;
    out.start_exec = att.start_exec;
    out.cold_start = att.cold_start;
    out.init_duration = att.init_duration;
    if (ts != nullptr) {
      ts->RecordCompletion(now, /*ok=*/false, now - out.arrival);
    }
    ++terminal;
  }

  // Concludes an attempt server-side at `now`: a completion, a failure, or a
  // client-timeout withdrawal. The caller has already taken it out of its
  // sandbox or queue. A started attempt is billed up to now. Then, unless
  // the client gave up on it, a success is delivered and a failure goes to
  // ResolveClient.
  void Conclude(int attempt_idx, Outcome oc) {
    AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
    const bool started = attempt_started[static_cast<size_t>(attempt_idx)] != 0;
    att.outcome = oc;
    att.end = now;
    if (started) {
      att.exec_duration = now - att.start_exec;
    }
    attempt_open[static_cast<size_t>(attempt_idx)] = 0;
    --open_attempts;
    if (oc == Outcome::kOk) {
      last_completion = std::max(last_completion, now);
    } else {
      CountFailure(oc);
    }
    // Started attempts get an exec span; never-admitted ones a terminal wait
    // span from dispatch to the rejection/withdrawal.
    const MicroSecs from = started ? att.start_exec : att.dispatched;
    EmitClientSpan(started ? SpanKind::kExec : SpanKind::kQueueWait, from, now - from,
                   attempt_idx, OutcomeName(oc), /*term=*/true);
    if (ts != nullptr && started && now > att.start_exec) {
      ts->RecordExecution(att.start_exec, now);
    }
    if (att.client_abandoned) {
      return;  // No one is left to deliver to.
    }
    if (oc != Outcome::kOk) {
      ResolveClient(attempt_idx, oc);
      return;
    }
    if (breaker.enabled()) {
      breaker.RecordSuccess();
    }
    RequestOutcome& out = result.requests[static_cast<size_t>(att.req_idx)];
    out.outcome = Outcome::kOk;
    out.completion = now;
    out.reported_duration = now - out.start_exec;
    out.e2e_latency = now - out.arrival;
    if (ts != nullptr) {
      ts->RecordCompletion(now, /*ok=*/true, now - out.arrival);
    }
    ++terminal;
  }

  void EnterIdle(SandboxState& s) {
    s.ka_deadline = now + config.keepalive->SampleDuration(rng, ReadyCount());
    ++s.gen;
    queue.push({s.ka_deadline, EventType::kKaExpire, s.id, s.gen});
  }

  // Runs after every change to a sandbox's in-flight set: recomputes its CPU
  // rate and schedules its next transition. Emptied, it retires if draining
  // (the drain is complete) or else enters keep-alive, and a
  // multi-concurrency ingress pulls queued work onto the freed capacity.
  void Settle(SandboxState& s) {
    s.rate = ComputeRate(s);
    if (!s.inflight.empty()) {
      // Bumps the generation, which also invalidates the pending KA-expiry
      // event of a sandbox that was idle.
      ScheduleNext(s);
      return;
    }
    if (s.draining) {
      RetireSandbox(s);
    } else {
      EnterIdle(s);
    }
    if (multi) {
      PullGlobalQueue();
    }
  }

  // Starts an attempt on a ready sandbox now.
  void Admit(SandboxState& s, int attempt_idx, bool cold) {
    Advance(s);
    StartAttempt(s, attempt_idx, cold);
    Settle(s);
  }

  // A multi-concurrency pool left empty with work queued starts one
  // instance at once: scale from zero, or the platform replacing its last
  // dead instance. Further scale-out is metric-driven and therefore lags
  // demand (paper §3.1).
  void ReplaceIfEmpty() {
    if (multi && !global_queue.empty() && AliveCount() == 0) {
      CreateSandbox();
    }
  }

  // A sandbox dies with work in it (a crash that takes the process down, or
  // a spent drain budget): every in-flight attempt fails as a crash, billed
  // up to now, and the next arrival pays a cold start.
  void KillSandbox(SandboxState& s) {
    for (const auto& r : s.inflight) {
      Conclude(r.attempt_idx, Outcome::kCrash);
    }
    ClearInflight(s);
    RetireSandbox(s);
    ReplaceIfEmpty();
  }

  // Pulls queued attempts onto available capacity (multi-concurrency model).
  void PullGlobalQueue() {
    while (!global_queue.empty()) {
      SandboxState* best = nullptr;
      int eligible = 0;
      for (const int id : live) {
        SandboxState& s = sandboxes[static_cast<size_t>(id)];
        if (s.initializing || s.draining) {
          continue;
        }
        if (static_cast<int>(s.inflight.size()) >= config.concurrency_limit) {
          continue;
        }
        ++eligible;
        if (config.routing == RoutingPolicy::kRandom) {
          // Reservoir pick: uniform among eligible sandboxes.
          if (rng.UniformInt(1, eligible) == 1) {
            best = &s;
          }
        } else if (best == nullptr || s.inflight.size() < best->inflight.size()) {
          best = &s;
        }
      }
      if (best == nullptr) {
        return;
      }
      const int attempt_idx = global_queue.front();
      global_queue.pop_front();
      Admit(*best, attempt_idx, /*cold=*/best->served == 0);
    }
  }

  // Parks an attempt in the ingress queue. With admission control the queue
  // is bounded: past queue_depth the shed policy fails the newcomer
  // (reject-newest) or the head, which has waited longest and is the most
  // likely to time out anyway (reject-oldest); waits are clocked against
  // queue_timeout. Returns false when the newcomer was shed.
  bool Enqueue(int attempt_idx) {
    if (config.admission.enabled) {
      if (static_cast<int>(global_queue.size()) >= config.admission.queue_depth) {
        ++result.shed_attempts;
        if (config.admission.shed == ShedPolicy::kRejectNewest) {
          Conclude(attempt_idx, Outcome::kRejected);
          return false;
        }
        const int victim = global_queue.front();
        global_queue.pop_front();
        Conclude(victim, Outcome::kRejected);
      }
      if (config.admission.queue_timeout > 0) {
        queue.push({now + config.admission.queue_timeout, EventType::kQueueTimeout, -1, 0,
                    attempt_idx});
      }
    }
    global_queue.push_back(attempt_idx);
    return true;
  }

  // The single-concurrency placement, of a new attempt or (`queued`) of the
  // admission queue's head: reuse the idle sandbox readied last, else cold
  // start. At max_instances a cold start is gated: with the admission queue
  // on, a new attempt joins the queue and the head keeps waiting; with
  // reject_on_overload instead, the attempt fails with a 429. Returns false
  // when the head has to keep waiting.
  bool PlaceSingle(int attempt_idx, bool queued) {
    SandboxState* warm = nullptr;
    for (const int id : live) {
      SandboxState& s = sandboxes[static_cast<size_t>(id)];
      if (s.draining || s.initializing || !s.inflight.empty()) {
        continue;
      }
      if (s.ka_deadline >= 0 && s.ka_deadline <= now) {
        continue;  // Expiry event still queued but the window has passed.
      }
      if (warm == nullptr || s.ready_at > warm->ready_at) {
        warm = &s;
      }
    }
    if (warm != nullptr) {
      Admit(*warm, attempt_idx, /*cold=*/false);
      return true;
    }
    const bool saturated = AliveCount() >= config.max_instances;
    if (saturated && config.admission.enabled) {
      if (!queued) {
        Enqueue(attempt_idx);
      }
      return false;
    }
    if (saturated && config.faults.reject_on_overload) {
      Conclude(attempt_idx, Outcome::kRejected);
      return true;
    }
    SandboxState& fresh = CreateSandbox();
    fresh.pending_local.push_back(attempt_idx);
    result.attempts[static_cast<size_t>(attempt_idx)].sandbox_id = fresh.id;
    return true;
  }

  // Single-concurrency admission pump: when capacity frees up (a sandbox
  // goes idle or dies), places waiting attempts in FIFO order. The head
  // leaves the queue once placed. No-op unless the bounded admission queue
  // is enabled, so default runs never touch it.
  void PumpAdmission() {
    if (!config.admission.enabled || multi) {
      return;
    }
    while (!global_queue.empty() && PlaceSingle(global_queue.front(), /*queued=*/true)) {
      global_queue.pop_front();
    }
  }

  // Creates an attempt record for `req_idx` and routes it to a sandbox, the
  // global queue, or immediate rejection.
  void Dispatch(int req_idx) {
    const int attempt_no = next_attempt_no[static_cast<size_t>(req_idx)]++;
    const int attempt_idx = static_cast<int>(result.attempts.size());
    result.attempts.push_back({.req_idx = req_idx, .attempt = attempt_no, .dispatched = now});
    attempt_open.push_back(1);
    attempt_started.push_back(0);
    ++open_attempts;
    result.requests[static_cast<size_t>(req_idx)].attempts = attempt_no;
    if (breaker.enabled() && !breaker.AllowDispatch(now)) {
      // Fast-fail at the client: the attempt never reaches the platform and
      // is never billed (and never starts a client-timeout clock).
      Conclude(attempt_idx, Outcome::kCircuitOpen);
      return;
    }
    if (config.retry.attempt_timeout > 0) {
      queue.push(
          {now + config.retry.attempt_timeout, EventType::kClientTimeout, -1, 0, attempt_idx});
    }
    if (!multi) {
      PlaceSingle(attempt_idx, /*queued=*/false);
      return;
    }
    // Multi-concurrency: 429 when the deployment is saturated — at the
    // instance cap with no spare concurrency anywhere and nothing warming up.
    if (config.faults.reject_on_overload && AliveCount() >= config.max_instances) {
      bool spare = false;
      for (const int id : live) {
        const SandboxState& s = sandboxes[static_cast<size_t>(id)];
        if (s.initializing || static_cast<int>(s.inflight.size()) < config.concurrency_limit) {
          spare = true;
          break;
        }
      }
      if (!spare) {
        Conclude(attempt_idx, Outcome::kRejected);
        return;
      }
    }
    // Queue at the ingress and let the pull logic place it.
    if (!Enqueue(attempt_idx)) {
      return;
    }
    PullGlobalQueue();
    ReplaceIfEmpty();
  }

  // O(state) invariant scan (AuditLevel::kFull, cadence-gated). Walks every
  // attempt, queue entry, and sandbox; see DESIGN.md §9 for the catalog.
  void AuditScan() {
    if (auditor == nullptr) {
      return;
    }
    auditor->NoteScan();
    // Request conservation: admitted == concluded + in-flight, expressed as
    // "the number of open attempt flags equals the open-attempt counter".
    int64_t open_flags = 0;
    for (const uint8_t open : attempt_open) {
      open_flags += open;
    }
    auditor->CheckLazy(open_flags == open_attempts, "platform.open_attempts", now,
                       seed, [] { return "attempts"; },
                       [&] {
                         return "flagged=" + std::to_string(open_flags) +
                                " counter=" + std::to_string(open_attempts);
                       });
    // Every open attempt is accounted for in exactly one waiting place:
    // running in a sandbox, parked in the global admission queue, or pending
    // a cold start.
    int64_t inflight_total = 0;
    int64_t pending_total = 0;
    for (const auto& s : sandboxes) {
      inflight_total += static_cast<int64_t>(s.inflight.size());
      pending_total += static_cast<int64_t>(s.pending_local.size());
      for (const auto& r : s.inflight) {
        auditor->CheckLazy(attempt_open[static_cast<size_t>(r.attempt_idx)] == 1 &&
                               attempt_started[static_cast<size_t>(r.attempt_idx)] == 1,
                           "platform.inflight_attempt_state", now, seed,
                           [&] { return "sandbox " + std::to_string(s.id); },
                           [&] {
                             return "attempt " + std::to_string(r.attempt_idx) +
                                    " resident but not open+started";
                           });
      }
      for (const int a : s.pending_local) {
        auditor->CheckLazy(attempt_open[static_cast<size_t>(a)] == 1 &&
                               attempt_started[static_cast<size_t>(a)] == 0,
                           "platform.pending_attempt_state", now, seed,
                           [&] { return "sandbox " + std::to_string(s.id); },
                           [&] {
                             return "attempt " + std::to_string(a) +
                                    " pending but not open";
                           });
      }
    }
    for (const int a : global_queue) {
      auditor->CheckLazy(attempt_open[static_cast<size_t>(a)] == 1 &&
                             attempt_started[static_cast<size_t>(a)] == 0,
                         "platform.queued_attempt_state", now, seed,
                         [] { return "global queue"; },
                         [&] {
                           return "attempt " + std::to_string(a) +
                                  " queued but not open";
                         });
    }
    auditor->CheckLazy(
        open_attempts == inflight_total + static_cast<int64_t>(global_queue.size()) +
                             pending_total,
        "platform.request_conservation", now, seed, [] { return "attempts"; },
        [&] {
          return "open=" + std::to_string(open_attempts) + " inflight=" +
                 std::to_string(inflight_total) + " queued=" +
                 std::to_string(global_queue.size()) + " pending=" +
                 std::to_string(pending_total);
        });
    // Capacity accounting: every sandbox is in exactly one of
    // dead / initializing / draining / busy / idle.
    int64_t dead = 0, initializing = 0, draining = 0, busy = 0, idle = 0;
    // The derived indexes: `live` lists exactly the non-dead ids, ascending,
    // and each cpu_phase matches a recount.
    size_t live_pos = 0;
    bool live_matches = true;
    for (const auto& s : sandboxes) {
      if (!s.dead) {
        live_matches = live_matches && live_pos < live.size() && live[live_pos] == s.id;
        ++live_pos;
      }
      auditor->CheckLazy(s.cpu_phase == CpuPhaseCount(s), "platform.cpu_phase_count", now,
                         seed, [&] { return "sandbox " + std::to_string(s.id); },
                         [&] {
                           return "cached=" + std::to_string(s.cpu_phase) +
                                  " recount=" + std::to_string(CpuPhaseCount(s));
                         });
      if (s.dead) {
        ++dead;
      } else if (s.initializing) {
        ++initializing;
      } else if (s.draining) {
        ++draining;
      } else if (!s.inflight.empty()) {
        ++busy;
      } else {
        ++idle;
      }
      // Time accounting: once ready, every elapsed microsecond up to the
      // sandbox's accounting horizon is either busy or idle.
      if (!s.dead && !s.initializing) {
        auditor->CheckLazy(s.busy_time + s.idle_time == s.last_advance - s.ready_at,
                           "platform.sandbox_time_accounting", now, seed,
                           [&] { return "sandbox " + std::to_string(s.id); },
                           [&] {
                             return "busy=" + std::to_string(s.busy_time) +
                                    " idle=" + std::to_string(s.idle_time) +
                                    " horizon=" +
                                    std::to_string(s.last_advance - s.ready_at);
                           });
      }
      auditor->CheckLazy(s.last_advance <= now, "platform.sandbox_clock", now,
                         seed,
                         [&] { return "sandbox " + std::to_string(s.id); },
                         [&] {
                           return "last_advance=" + std::to_string(s.last_advance);
                         });
    }
    auditor->CheckLazy(
        dead + initializing + draining + busy + idle ==
            static_cast<int64_t>(sandboxes.size()),
        "platform.capacity_accounting", now, seed, [] { return "fleet"; },
        [&] {
          return "categories sum to " +
                 std::to_string(dead + initializing + draining + busy + idle) +
                 " of " + std::to_string(sandboxes.size());
        });
    auditor->CheckLazy(live_matches && live_pos == live.size(), "platform.live_sandboxes",
                       now, seed, [] { return "fleet"; },
                       [&] {
                         return std::to_string(live.size()) + " listed live, " +
                                std::to_string(live_pos) + " not dead";
                       });
  }

  // A loaded state indexes the requests, the attempt rows and the sandboxes;
  // an index out of range would crash the run, so it is a malformed
  // checkpoint.
  void RequireIndicesInRange() const {
    const auto check = [](const char* field, int64_t value, int64_t lo, int64_t end) {
      RequireInRange("platform", field, value, lo, end);
    };
    const auto requests = static_cast<int64_t>(result.requests.size());
    const auto attempts = static_cast<int64_t>(result.attempts.size());
    const auto boxes = static_cast<int64_t>(sandboxes.size());
    const auto length = [&](const char* field, size_t size, int64_t n) {
      check(field, static_cast<int64_t>(size), n, n + 1);
    };
    length("next_attempt_no length", next_attempt_no.size(), requests);
    length("attempt_open length", attempt_open.size(), attempts);
    length("attempt_started length", attempt_started.size(), attempts);
    for (const Event& e : queue.raw()) {
      int64_t sb_lo = -1;  // An event of a kind that names no sandbox may carry -1.
      switch (e.type) {
        case EventType::kArrival:
        case EventType::kRetryArrival:
          check("event r", e.req_idx, 0, requests);
          break;
        case EventType::kExecTimeout:
        case EventType::kClientTimeout:
        case EventType::kQueueTimeout:
          check("event r", e.req_idx, 0, attempts);
          break;
        case EventType::kInitDone:
        case EventType::kSandboxNext:
        case EventType::kKaExpire:
        case EventType::kDrainDeadline:
          sb_lo = 0;
          break;
        case EventType::kScalerEval:
        case EventType::kSample:
          break;
      }
      check("event sb", e.sandbox_id, sb_lo, boxes);
    }
    for (size_t i = 0; i < sandboxes.size(); ++i) {
      const SandboxState& s = sandboxes[i];
      check("sandbox id", s.id, static_cast<int64_t>(i), static_cast<int64_t>(i) + 1);
      for (const InFlightReq& r : s.inflight) {
        check("inflight req_idx", r.req_idx, 0, requests);
        check("inflight attempt_idx", r.attempt_idx, 0, attempts);
      }
      for (const int a : s.pending_local) {
        check("pending_local entry", a, 0, attempts);
      }
    }
    for (const int a : global_queue) {
      check("global_queue entry", a, 0, attempts);
    }
    for (const AttemptOutcome& a : result.attempts) {
      check("attempt req_idx", a.req_idx, 0, requests);
      check("attempt sandbox_id", a.sandbox_id, -1, boxes);
    }
  }

  // Rebuilds the derived indexes (`live`, each cpu_phase) from the sandbox
  // table after a load.
  void RebuildDerived() {
    live.clear();
    for (auto& s : sandboxes) {
      s.cpu_phase = CpuPhaseCount(s);
      if (!s.dead) {
        live.push_back(s.id);
      }
    }
  }

  void StepOne() {
    const Event ev = queue.top();
    queue.pop();
    if (auditor != nullptr && auditor->basic()) {
      auditor->CheckLazy(ev.time >= now, "platform.monotone_event_time", now,
                         seed, [] { return "event queue"; },
                         [&] {
                           return "event at t=" + std::to_string(ev.time) +
                                  " after t=" + std::to_string(now);
                         });
    }
    now = ev.time;
    ++events_processed;
    if (prof != nullptr) {
      prof->CountEvent(static_cast<int>(ev.type), now,
                       queue.size() + 1);  // +1: `ev` was just popped.
    }
    switch (ev.type) {
      case EventType::kArrival:
      case EventType::kRetryArrival: {
        ++arrivals_since_sample;
        if (ts != nullptr) {
          ts->RecordArrival(now);
        }
        // Idle-time feedback for predictive keep-alive (paper §3.3); retry
        // re-arrivals are arrivals from the platform's point of view too.
        if (last_completion >= 0 && now > last_completion) {
          config.keepalive->ObserveIdleInterval(now - last_completion);
        }
        Dispatch(ev.req_idx);
        break;
      }
      case EventType::kInitDone: {
        SandboxState& s = sandboxes[static_cast<size_t>(ev.sandbox_id)];
        if (s.dead || !s.initializing) {
          break;
        }
        Advance(s);
        EmitSandboxSpan(SpanKind::kInit, s, s.created_at,
                        OutcomeName(s.init_failed ? Outcome::kInitFailure : Outcome::kOk));
        if (s.init_failed) {
          // The sandbox never becomes ready; its waiting attempts fail after
          // the (wasted, possibly billed) initialization time.
          RetireSandbox(s);
          const MicroSecs init = s.ready_at - s.created_at;
          for (int attempt_idx : s.pending_local) {
            if (!attempt_open[static_cast<size_t>(attempt_idx)]) {
              continue;  // Withdrawn by a client timeout.
            }
            AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
            att.cold_start = true;
            att.init_duration = init;
            Conclude(attempt_idx, Outcome::kInitFailure);
          }
          s.pending_local.clear();
          ReplaceIfEmpty();
          break;
        }
        s.initializing = false;
        if (multi) {
          // Only single-concurrency attempts wait on a sandbox's init.
          PullGlobalQueue();
          if (s.inflight.empty()) {
            EnterIdle(s);
          }
          break;
        }
        for (int attempt_idx : s.pending_local) {
          if (!attempt_open[static_cast<size_t>(attempt_idx)]) {
            continue;  // Withdrawn by a client timeout.
          }
          StartAttempt(s, attempt_idx, /*cold=*/true);
        }
        s.pending_local.clear();
        Settle(s);  // Idle at once if every waiting client gave up.
        break;
      }
      case EventType::kSandboxNext: {
        SandboxState& s = sandboxes[static_cast<size_t>(ev.sandbox_id)];
        if (s.dead || ev.gen != s.gen) {
          break;
        }
        Advance(s);
        // Fixed-phase transitions first, then completions.
        for (auto& r : s.inflight) {
          if (!r.in_cpu_phase && r.fixed_end <= now) {
            EnterCpuPhase(s, r);
          }
        }
        bool crashed = false;
        for (size_t i = s.inflight.size(); i-- > 0;) {
          const InFlightReq& r = s.inflight[i];
          if (!r.in_cpu_phase || r.remaining_cpu > 0.5) {
            continue;
          }
          const int attempt_idx = r.attempt_idx;
          const bool crash = r.will_crash;
          RemoveInflight(s, i);
          Conclude(attempt_idx, crash ? Outcome::kCrash : Outcome::kOk);
          crashed = crashed || crash;
        }
        if (crashed && config.faults.crash_kills_sandbox) {
          KillSandbox(s);  // Process death: co-resident requests die with it.
          break;
        }
        Settle(s);
        break;
      }
      case EventType::kExecTimeout: {
        const int attempt_idx = ev.req_idx;
        if (!attempt_open[static_cast<size_t>(attempt_idx)] ||
            !attempt_started[static_cast<size_t>(attempt_idx)]) {
          break;  // Already concluded (finished, crashed, or sandbox died).
        }
        const int sandbox_id = result.attempts[static_cast<size_t>(attempt_idx)].sandbox_id;
        SandboxState& s = sandboxes[static_cast<size_t>(sandbox_id)];
        size_t pos = s.inflight.size();
        for (size_t i = 0; i < s.inflight.size(); ++i) {
          if (s.inflight[i].attempt_idx == attempt_idx) {
            pos = i;
            break;
          }
        }
        if (pos == s.inflight.size()) {
          break;
        }
        Advance(s);
        RemoveInflight(s, pos);
        Conclude(attempt_idx, Outcome::kTimeout);  // Billed through the timeout.
        Settle(s);
        break;
      }
      case EventType::kClientTimeout: {
        const int attempt_idx = ev.req_idx;
        AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
        if (!attempt_open[static_cast<size_t>(attempt_idx)] || att.client_abandoned) {
          break;  // Concluded before the client gave up, or already abandoned.
        }
        if (attempt_started[static_cast<size_t>(attempt_idx)]) {
          // The attempt keeps running (and billing) server-side; the client
          // moves on.
          ResolveClient(attempt_idx, Outcome::kTimeout);
        } else {
          // Never admitted: withdraw from whichever queue it waits in.
          if (att.sandbox_id >= 0) {
            auto& pending = sandboxes[static_cast<size_t>(att.sandbox_id)].pending_local;
            pending.erase(std::remove(pending.begin(), pending.end(), attempt_idx),
                          pending.end());
          } else {
            global_queue.erase(
                std::remove(global_queue.begin(), global_queue.end(), attempt_idx),
                global_queue.end());
          }
          Conclude(attempt_idx, Outcome::kTimeout);
        }
        att.client_abandoned = true;
        break;
      }
      case EventType::kQueueTimeout: {
        const int attempt_idx = ev.req_idx;
        if (!attempt_open[static_cast<size_t>(attempt_idx)] ||
            attempt_started[static_cast<size_t>(attempt_idx)]) {
          break;  // Admitted or already concluded while the clock ran.
        }
        if (result.attempts[static_cast<size_t>(attempt_idx)].sandbox_id >= 0) {
          break;  // Admitted to a cold-starting sandbox: init wait, not queue wait.
        }
        const auto it = std::find(global_queue.begin(), global_queue.end(), attempt_idx);
        if (it == global_queue.end()) {
          break;
        }
        global_queue.erase(it);
        ++result.queue_timeout_attempts;
        Conclude(attempt_idx, Outcome::kTimeout);
        break;
      }
      case EventType::kDrainDeadline: {
        SandboxState& s = sandboxes[static_cast<size_t>(ev.sandbox_id)];
        if (s.dead || !s.draining) {
          break;
        }
        Advance(s);
        // The drain budget is spent: whatever is still running dies with
        // the instance (the cost of degrading gracefully but not infinitely).
        result.drain_killed_attempts += static_cast<int64_t>(s.inflight.size());
        KillSandbox(s);
        break;
      }
      case EventType::kKaExpire: {
        SandboxState& s = sandboxes[static_cast<size_t>(ev.sandbox_id)];
        if (s.dead || ev.gen != s.gen || !s.inflight.empty() || s.initializing) {
          break;
        }
        Advance(s);
        RetireSandbox(s);
        break;
      }
      case EventType::kScalerEval: {
        const int ready = ReadyCount();
        const int desired = scaler.DesiredInstances(now);
        const int alive = AliveCount();
        const bool cooled_down =
            now - last_scale_action >= scaler_config.action_cooldown;
        if (desired > alive && cooled_down) {
          const int target = std::min(desired, config.max_instances);
          for (int i = alive; i < target; ++i) {
            CreateSandbox();
          }
          last_scale_action = now;
        } else if (desired < ready && global_queue.empty() && cooled_down) {
          // Scale down surplus idle instances. Retiring edits `live`, so
          // this pass walks a copy of it.
          int to_remove = ready - desired;
          const std::vector<int> walk = live;
          for (const int id : walk) {
            if (to_remove <= 0) {
              break;
            }
            SandboxState& s = sandboxes[static_cast<size_t>(id)];
            if (!s.initializing && !s.draining && s.inflight.empty()) {
              Advance(s);
              RetireSandbox(s);
              --to_remove;
            }
          }
          if (config.scaledown_drains_busy) {
            // Graceful degradation: surplus busy instances stop taking new
            // work and get drain_deadline to finish what they hold.
            for (const int id : live) {
              if (to_remove <= 0) {
                break;
              }
              SandboxState& s = sandboxes[static_cast<size_t>(id)];
              if (!s.initializing && !s.draining && !s.inflight.empty()) {
                Advance(s);
                s.draining = true;
                s.drain_started = now;
                ++result.drained_sandboxes;
                queue.push({now + config.drain_deadline, EventType::kDrainDeadline, s.id});
                --to_remove;
              }
            }
          }
          last_scale_action = now;
        }
        if (!Done()) {
          queue.push({now + config.autoscaler.eval_interval, EventType::kScalerEval});
        }
        break;
      }
      case EventType::kSample: {
        TimelineSample sample;
        sample.time = now;
        double util_sum = 0.0;
        int ready = 0;
        for (const int id : live) {
          SandboxState& s = sandboxes[static_cast<size_t>(id)];
          ++sample.instances;
          if (!s.initializing) {
            ++ready;
            // Utilization = busy-time fraction over the last sample interval
            // (what a CPU-usage metric reports), not the instantaneous
            // in-flight indicator.
            Advance(s);
            const double busy_frac =
                static_cast<double>(s.busy_time - s.busy_snapshot) /
                static_cast<double>(config.autoscaler.sample_interval);
            s.busy_snapshot = s.busy_time;
            util_sum += std::clamp(busy_frac, 0.0, 1.0);
          }
          sample.busy_requests += static_cast<int>(s.inflight.size());
        }
        sample.busy_requests += static_cast<int>(global_queue.size());
        sample.ready_instances = ready;
        sample.avg_utilization = ready > 0 ? util_sum / ready : 0.0;
        result.timeline.push_back(sample);
        if (ts != nullptr) {
          ts->RecordQueueDepth(now, static_cast<int64_t>(global_queue.size()));
        }
        if (config.autoscaler_enabled) {
          // Consumed-CPU metric (what a CPU-utilization target observes):
          // the sum of per-instance busy fractions times the allocation,
          // physically capped at the deployed capacity.
          scaler.AddSample(now, util_sum * config.vcpus);
        }
        arrivals_since_sample = 0;
        if (!Done()) {
          queue.push({now + config.autoscaler.sample_interval, EventType::kSample});
        }
        break;
      }
    }
    // Any event can free capacity (idle sandbox, death, KA expiry); admit
    // waiting single-model attempts as soon as it does. No-op by default.
    PumpAdmission();
    if (auditor != nullptr) {
      if (auditor->basic()) {
        auditor->CheckLazy(open_attempts >= 0,
                           "platform.open_attempts_nonnegative", now, seed,
                           [] { return "attempts"; },
                           [&] { return std::to_string(open_attempts); });
        auditor->CheckLazy(terminal <= result.requests.size(),
                           "platform.terminal_bound", now, seed,
                           [] { return "requests"; },
                           [&] {
                             return std::to_string(terminal) + " of " +
                                    std::to_string(result.requests.size());
                           });
      }
      if (auditor->ScanDue(events_processed)) {
        AuditScan();
      }
    }
  }

  // The complete mutable state, walked once for save, load, and digest (see
  // src/integrity/archive.h). Every field a resumed run reads must be here.
  template <typename Ar>
  void Archive(Ar& ar) {
    ar.Field("now", now);
    uint64_t term = terminal;
    ar.Field("terminal", term);
    if constexpr (Ar::kLoading) {
      terminal = static_cast<size_t>(term);
    }
    ar.Field("open_attempts", open_attempts);
    ar.Field("last_scale_action", last_scale_action);
    ar.Field("arrivals_since_sample", arrivals_since_sample);
    ar.Field("last_completion", last_completion);
    ar.Field("events_processed", events_processed);

    ar.Begin("workload");
    ar.Field("name", workload.name);
    ar.Field("cpu_time", workload.cpu_time);
    ar.Field("io_wait", workload.io_wait);
    ar.Field("memory_footprint", workload.memory_footprint);
    ar.Field("cpu_jitter", workload.cpu_jitter);
    ar.End();

    rng.Archive(ar, "rng");
    faults.rng().Archive(ar, "fault_rng");
    ar.Begin("breaker");
    breaker.Archive(ar);
    ar.End();
    scaler.Archive(ar, "scaler_samples");
    ArchiveKeepAlive(ar, "keepalive", *config.keepalive);

    {
      std::vector<Event>& events = queue.raw();
      const size_t n = ar.BeginArray("events", events.size());
      if constexpr (Ar::kLoading) {
        events.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        ar.BeginElem();
        Event& e = events[i];
        ar.Field("t", e.time);
        ArchiveEnum(ar, "k", e.type, std::size(kEventTypeNames), "event k");
        ar.Field("sb", e.sandbox_id);
        ar.Field("g", e.gen);
        ar.Field("r", e.req_idx);
        ar.EndElem();
      }
      ar.EndArray();
    }

    ArchiveInts(ar, "global_queue", global_queue);
    ArchiveInts(ar, "next_attempt_no", next_attempt_no);
    ArchiveInts(ar, "attempt_open", attempt_open);
    ArchiveInts(ar, "attempt_started", attempt_started);

    {
      const size_t n = ar.BeginArray("sandboxes", sandboxes.size());
      if constexpr (Ar::kLoading) {
        sandboxes.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        SandboxState& s = sandboxes[i];
        ar.BeginElem();
        ar.Field("id", s.id);
        ar.Field("dead", s.dead);
        ar.Field("initializing", s.initializing);
        ar.Field("draining", s.draining);
        ar.Field("init_failed", s.init_failed);
        ar.Field("created_at", s.created_at);
        ar.Field("ready_at", s.ready_at);
        ar.Field("drain_started", s.drain_started);
        ar.Field("last_advance", s.last_advance);
        ar.Field("rate", s.rate);
        ar.Field("gen", s.gen);
        ar.Field("ka_deadline", s.ka_deadline);
        ar.Field("served", s.served);
        ar.Field("busy_time", s.busy_time);
        ar.Field("idle_time", s.idle_time);
        ar.Field("busy_snapshot", s.busy_snapshot);
        {
          const size_t m = ar.BeginArray("inflight", s.inflight.size());
          if constexpr (Ar::kLoading) {
            s.inflight.resize(m);
          }
          for (size_t j = 0; j < m; ++j) {
            InFlightReq& r = s.inflight[j];
            ar.BeginElem();
            ar.Field("req_idx", r.req_idx);
            ar.Field("attempt_idx", r.attempt_idx);
            ar.Field("remaining_cpu", r.remaining_cpu);
            ar.Field("in_cpu_phase", r.in_cpu_phase);
            ar.Field("will_crash", r.will_crash);
            ar.Field("fixed_end", r.fixed_end);
            ar.EndElem();
          }
          ar.EndArray();
        }
        ArchiveInts(ar, "pending_local", s.pending_local);
        ar.EndElem();
      }
      ar.EndArray();
    }

    {
      const size_t n = ar.BeginArray("requests", result.requests.size());
      if constexpr (Ar::kLoading) {
        result.requests.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        RequestOutcome& r = result.requests[i];
        ar.BeginElem();
        ar.Field("arrival", r.arrival);
        ar.Field("start_exec", r.start_exec);
        ar.Field("completion", r.completion);
        ar.Field("reported_duration", r.reported_duration);
        ar.Field("e2e_latency", r.e2e_latency);
        ar.Field("cold_start", r.cold_start);
        ar.Field("init_duration", r.init_duration);
        ar.Field("sandbox_id", r.sandbox_id);
        ArchiveEnum(ar, "outcome", r.outcome, std::size(kAllOutcomes), "request outcome");
        ArchiveEnum(ar, "last_error", r.last_error, std::size(kAllOutcomes),
                    "request last_error");
        ar.Field("attempts", r.attempts);
        ar.EndElem();
      }
      ar.EndArray();
    }

    {
      const size_t n = ar.BeginArray("attempts", result.attempts.size());
      if constexpr (Ar::kLoading) {
        result.attempts.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        AttemptOutcome& a = result.attempts[i];
        ar.BeginElem();
        ar.Field("req_idx", a.req_idx);
        ar.Field("attempt", a.attempt);
        ArchiveEnum(ar, "outcome", a.outcome, std::size(kAllOutcomes), "attempt outcome");
        ar.Field("dispatched", a.dispatched);
        ar.Field("start_exec", a.start_exec);
        ar.Field("end", a.end);
        ar.Field("exec_duration", a.exec_duration);
        ar.Field("cold_start", a.cold_start);
        ar.Field("init_duration", a.init_duration);
        ar.Field("sandbox_id", a.sandbox_id);
        ar.Field("client_abandoned", a.client_abandoned);
        ar.EndElem();
      }
      ar.EndArray();
    }

    {
      const size_t n = ar.BeginArray("timeline", result.timeline.size());
      if constexpr (Ar::kLoading) {
        result.timeline.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        TimelineSample& s = result.timeline[i];
        ar.BeginElem();
        ar.Field("time", s.time);
        ar.Field("instances", s.instances);
        ar.Field("ready_instances", s.ready_instances);
        ar.Field("busy_requests", s.busy_requests);
        ar.Field("avg_utilization", s.avg_utilization);
        ar.EndElem();
      }
      ar.EndArray();
    }

    ar.Begin("counters");
    ar.Field("failed_attempts", result.failed_attempts);
    ar.Field("init_failure_attempts", result.init_failure_attempts);
    ar.Field("crash_attempts", result.crash_attempts);
    ar.Field("timeout_attempts", result.timeout_attempts);
    ar.Field("rejected_attempts", result.rejected_attempts);
    ar.Field("circuit_open_attempts", result.circuit_open_attempts);
    ar.Field("queue_timeout_attempts", result.queue_timeout_attempts);
    ar.Field("shed_attempts", result.shed_attempts);
    ar.Field("drained_sandboxes", result.drained_sandboxes);
    ar.Field("drain_killed_attempts", result.drain_killed_attempts);
    ar.End();
  }
};

PlatformEngine::PlatformEngine(PlatformSimConfig config, uint64_t seed) {
  ThrowIfInvalid("PlatformSimConfig", config.Validate());
  impl_ = std::make_unique<Impl>(std::move(config), seed);
}

PlatformEngine::~PlatformEngine() = default;
PlatformEngine::PlatformEngine(PlatformEngine&&) noexcept = default;
PlatformEngine& PlatformEngine::operator=(PlatformEngine&&) noexcept = default;

void PlatformEngine::Start(const std::vector<MicroSecs>& arrivals,
                           const WorkloadSpec& workload) {
  Impl& im = *impl_;
  if (im.started) {
    throw std::logic_error("PlatformEngine::Start called twice");
  }
  im.started = true;
  im.workload = workload;
  im.result.requests.resize(arrivals.size());
  im.result.attempts.reserve(arrivals.size());
  im.next_attempt_no.assign(arrivals.size(), 1);
  // Every arrival plus the first sample and scaler events: one allocation.
  im.queue.raw().reserve(arrivals.size() + 2);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i] < (i == 0 ? 0 : arrivals[i - 1])) {
      throw std::invalid_argument(
          "PlatformEngine: arrivals must be non-negative and sorted; arrival " +
          std::to_string(i) + " is at " + std::to_string(arrivals[i]) + "us");
    }
    im.queue.push({arrivals[i], EventType::kArrival, -1, 0, static_cast<int>(i)});
    im.result.requests[i].arrival = arrivals[i];
  }
  if (!arrivals.empty()) {
    im.queue.push(
        {arrivals.front() + im.config.autoscaler.sample_interval, EventType::kSample});
    if (im.config.autoscaler_enabled) {
      im.queue.push({arrivals.front() + im.config.autoscaler.eval_interval,
                     EventType::kScalerEval});
    }
  }
}

void PlatformEngine::AdvanceUntil(MicroSecs t) {
  Impl& im = *impl_;
  while (!im.queue.empty() && !im.Done() && im.queue.top().time <= t) {
    im.StepOne();
  }
}

void PlatformEngine::RunToEnd() {
  Impl& im = *impl_;
  while (!im.queue.empty() && !im.Done()) {
    im.StepOne();
  }
}

bool PlatformEngine::done() const { return impl_->Done(); }

MicroSecs PlatformEngine::now() const { return impl_->now; }

PlatformSimResult PlatformEngine::Finish() {
  Impl& im = *impl_;
  if (im.finished) {
    throw std::logic_error("PlatformEngine::Finish called twice");
  }
  im.finished = true;
  PlatformSimResult& result = im.result;
  // Finalize accounting; surviving sandboxes are closed at the last event.
  // A dead sandbox's clock stopped at its retirement (Advance skips it), so
  // last_advance is when each sandbox was destroyed.
  for (auto& s : im.sandboxes) {
    if (!s.dead) {
      im.Advance(s);
      im.RetireSandbox(s);  // Emits the lifetime span for survivors.
    }
    SandboxAccounting acc;
    acc.sandbox_id = s.id;
    acc.created_at = s.created_at;
    acc.destroyed_at = s.last_advance;
    acc.init_time = std::min(s.ready_at, s.last_advance) - s.created_at;
    acc.busy_time = s.busy_time;
    acc.idle_time = s.idle_time;
    result.total_instance_seconds += MicrosToSecs(acc.destroyed_at - acc.created_at);
    result.sandboxes.push_back(acc);
  }
  result.cold_starts = static_cast<int>(
      std::count_if(result.attempts.begin(), result.attempts.end(),
                    [](const AttemptOutcome& a) { return a.cold_start; }));
  result.successes =
      std::count_if(result.requests.begin(), result.requests.end(),
                    [](const RequestOutcome& r) { return r.outcome == Outcome::kOk; });
  result.retries =
      static_cast<int64_t>(result.attempts.size()) - static_cast<int64_t>(result.requests.size());
  result.breaker_trips = im.breaker.trips();
  if (im.prof != nullptr) {
    im.prof->AddRngDraws(im.rng.draw_count());
    im.prof->AddRngDraws(im.faults.rng().draw_count());
  }
  return std::move(result);
}

void PlatformEngine::SaveState(JsonWriter& w) {
  Saver ar(&w);
  w.BeginObject();
  impl_->Archive(ar);
  w.EndObject();
}

void PlatformEngine::LoadState(const JsonValue& state) {
  Impl& im = *impl_;
  if (im.started) {
    throw std::logic_error("PlatformEngine::LoadState on a started engine");
  }
  im.started = true;
  Loader ar(&state);
  im.Archive(ar);
  im.RequireIndicesInRange();
  im.RebuildDerived();
}

uint64_t PlatformEngine::Digest() {
  StateDigest d;
  d.MixLabel("platform-state-v1");
  Digester ar(&d);
  impl_->Archive(ar);
  return d.value();
}

uint64_t PlatformEngine::ConfigHash() const {
  return HashPlatformConfig(impl_->config, impl_->seed);
}

const PlatformSimConfig& PlatformEngine::config() const { return impl_->config; }

uint64_t PlatformEngine::seed() const { return impl_->seed; }

PlatformSimResult PlatformSim::Run(const std::vector<MicroSecs>& arrivals,
                                   const WorkloadSpec& workload) {
  PlatformEngine engine(config_, seed_);
  engine.Start(arrivals, workload);
  engine.RunToEnd();
  return engine.Finish();
}

std::vector<MicroSecs> UniformArrivals(double rps, MicroSecs duration) {
  std::vector<MicroSecs> out;
  if (rps <= 0.0 || duration <= 0) {
    return out;
  }
  const double gap = static_cast<double>(kMicrosPerSec) / rps;
  for (double t = 0.0; t < static_cast<double>(duration); t += gap) {
    out.push_back(static_cast<MicroSecs>(t));
  }
  return out;
}

std::vector<MicroSecs> PoissonArrivals(double rps, MicroSecs duration, Rng& rng) {
  std::vector<MicroSecs> out;
  if (rps <= 0.0 || duration <= 0) {
    return out;
  }
  const double rate_per_us = rps / static_cast<double>(kMicrosPerSec);
  double t = rng.Exponential(rate_per_us);
  while (t < static_cast<double>(duration)) {
    out.push_back(static_cast<MicroSecs>(t));
    t += rng.Exponential(rate_per_us);
  }
  return out;
}

RequestRecord BillableRecord(const AttemptOutcome& attempt, double alloc_vcpus,
                             MegaBytes alloc_mem_mb) {
  RequestRecord r;
  r.arrival = attempt.dispatched;
  r.exec_duration = attempt.exec_duration;
  r.cpu_time = attempt.exec_duration;  // ~1 busy vCPU for the whole duration.
  r.alloc_vcpus = alloc_vcpus;
  r.alloc_mem_mb = alloc_mem_mb;
  r.used_mem_mb = alloc_mem_mb;
  r.cold_start = attempt.cold_start;
  r.init_duration = attempt.init_duration;
  r.outcome = attempt.outcome;
  r.attempt = attempt.attempt;
  return r;
}

double ColdStartProbability(const PlatformSimConfig& config, const WorkloadSpec& workload,
                            MicroSecs idle, int samples, uint64_t seed) {
  if (samples <= 0) {
    throw std::invalid_argument("ColdStartProbability: samples must be > 0, got " +
                                std::to_string(samples));
  }
  int cold = 0;
  for (int i = 0; i < samples; ++i) {
    const uint64_t run_seed = seed + static_cast<uint64_t>(i) * 7919;
    // First pass: find the warm-up request's completion time.
    PlatformSim warmup(config, run_seed);
    const PlatformSimResult first = warmup.Run({0}, workload);
    const MicroSecs probe_at = first.requests.front().completion + idle;
    // Replay with the same seed so the warm-up behaves identically, then
    // probe after the idle interval.
    PlatformSim probe(config, run_seed);
    const PlatformSimResult both = probe.Run({0, probe_at}, workload);
    if (both.requests.back().cold_start) {
      ++cold;
    }
  }
  return static_cast<double>(cold) / static_cast<double>(samples);
}

}  // namespace faascost
