#include "src/platform/platform_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

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

template <typename Ar>
void ArchiveBreaker(Ar& ar, std::string_view key, CircuitBreaker& breaker) {
  CircuitBreakerState st = breaker.SaveState();
  ar.Begin(key);
  ar.Field("state", st.state);
  ar.Field("consecutive_failures", st.consecutive_failures);
  ar.Field("open_until", st.open_until);
  ar.Field("probe_inflight", st.probe_inflight);
  ar.Field("trips", st.trips);
  ar.End();
  if constexpr (Ar::kLoading) {
    breaker.LoadState(st);
  }
}

template <typename Ar>
void ArchiveScaler(Ar& ar, std::string_view key, WindowedAutoscaler& scaler) {
  std::deque<std::pair<MicroSecs, double>> samples = scaler.samples();
  const size_t n = ar.BeginArray(key, samples.size());
  if constexpr (Ar::kLoading) {
    samples.resize(n);
  }
  for (size_t i = 0; i < n; ++i) {
    ar.BeginElem();
    ar.Field("t", samples[i].first);
    ar.Field("d", samples[i].second);
    ar.EndElem();
  }
  ar.EndArray();
  if constexpr (Ar::kLoading) {
    scaler.RestoreSamples(std::move(samples));
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
  if (!(vcpus > 0.0)) {
    errors.push_back("vcpus must be > 0, got " + std::to_string(vcpus));
  }
  if (!(mem_mb > 0.0)) {
    errors.push_back("mem_mb must be > 0, got " + std::to_string(mem_mb));
  }
  if (concurrency_limit < 1) {
    errors.push_back("concurrency_limit must be >= 1, got " +
                     std::to_string(concurrency_limit));
  }
  if (max_instances < 1) {
    errors.push_back("max_instances must be >= 1, got " + std::to_string(max_instances));
  }
  if (coldstart == nullptr && init_mean <= 0) {
    errors.push_back("init_mean must be > 0 when no cold-start model is set");
  }
  if (init_jitter < 0.0 || init_jitter >= 1.0) {
    errors.push_back("init_jitter must be in [0, 1), got " + std::to_string(init_jitter));
  }
  if (contention_coeff < 0.0) {
    errors.push_back("contention_coeff must be >= 0");
  }
  if (contention_excess_cap < 0.0) {
    errors.push_back("contention_excess_cap must be >= 0");
  }
  if (keepalive == nullptr) {
    errors.push_back("a keepalive policy is required");
  }
  for (const std::string& e : faults.Validate()) {
    errors.push_back("faults: " + e);
  }
  for (const std::string& e : retry.Validate()) {
    errors.push_back("retry: " + e);
  }
  for (const std::string& e : admission.Validate()) {
    errors.push_back("admission: " + e);
  }
  if (drain_deadline < 0) {
    errors.push_back("drain_deadline must be >= 0 (0 = drains kill at once), got " +
                     std::to_string(drain_deadline));
  }
  return errors;
}

PlatformSim::PlatformSim(PlatformSimConfig config, uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  const std::vector<std::string> errors = config_.Validate();
  if (!errors.empty()) {
    std::string msg = "invalid PlatformSimConfig";
    for (const auto& e : errors) {
      msg += "; " + e;
    }
    throw std::invalid_argument(msg);
  }
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
    if (prof != nullptr) {
      // Keep in EventType declaration order.
      prof->RegisterEventType(static_cast<int>(EventType::kArrival), "arrival");
      prof->RegisterEventType(static_cast<int>(EventType::kInitDone), "init_done");
      prof->RegisterEventType(static_cast<int>(EventType::kSandboxNext), "sandbox_next");
      prof->RegisterEventType(static_cast<int>(EventType::kKaExpire), "ka_expire");
      prof->RegisterEventType(static_cast<int>(EventType::kScalerEval), "scaler_eval");
      prof->RegisterEventType(static_cast<int>(EventType::kSample), "sample");
      prof->RegisterEventType(static_cast<int>(EventType::kRetryArrival),
                              "retry_arrival");
      prof->RegisterEventType(static_cast<int>(EventType::kExecTimeout),
                              "exec_timeout");
      prof->RegisterEventType(static_cast<int>(EventType::kClientTimeout),
                              "client_timeout");
      prof->RegisterEventType(static_cast<int>(EventType::kQueueTimeout),
                              "queue_timeout");
      prof->RegisterEventType(static_cast<int>(EventType::kDrainDeadline),
                              "drain_deadline");
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

  // Closes out a sandbox: emits its drain and lifetime spans, then marks it
  // dead. Every death site funnels through here.
  void RetireSandbox(SandboxState& s) {
    s.dead = true;
    if (trace == nullptr) {
      return;
    }
    if (s.draining) {
      Span d;
      d.kind = SpanKind::kDrain;
      d.group = kTrackGroupSandbox;
      d.track = s.id;
      d.start = s.drain_started;
      d.duration = now - s.drain_started;
      d.sandbox_id = s.id;
      trace->Record(d);
    }
    Span sp;
    sp.kind = SpanKind::kSandboxLife;
    sp.group = kTrackGroupSandbox;
    sp.track = s.id;
    sp.start = s.created_at;
    sp.duration = now - s.created_at;
    sp.sandbox_id = s.id;
    sp.status = s.init_failed ? OutcomeName(Outcome::kInitFailure) : "";
    trace->Record(sp);
  }

  static int CpuPhaseCount(const SandboxState& s) {
    int k = 0;
    for (const auto& r : s.inflight) {
      if (r.in_cpu_phase) {
        ++k;
      }
    }
    return k;
  }

  double ComputeRate(const SandboxState& s) const {
    const int k = CpuPhaseCount(s);
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

  void Advance(SandboxState& s) {
    const MicroSecs dt = now - s.last_advance;
    if (dt <= 0) {
      return;
    }
    if (!s.initializing && !s.dead) {
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
    int n = 0;
    for (const auto& s : sandboxes) {
      if (!s.dead && !s.initializing && !s.draining) {
        ++n;
      }
    }
    return n;
  }

  int AliveCount() const {
    int n = 0;
    for (const auto& s : sandboxes) {
      if (!s.dead) {
        ++n;
      }
    }
    return n;
  }

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
    s.inflight.push_back(r);
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

  // Server-side failure of an attempt (caller has already detached it from
  // any sandbox and set exec_duration for started attempts).
  void FailAttempt(int attempt_idx, Outcome oc) {
    AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
    att.outcome = oc;
    att.end = now;
    attempt_open[static_cast<size_t>(attempt_idx)] = 0;
    --open_attempts;
    CountFailure(oc);
    if (trace != nullptr) {
      // Started attempts get an exec span; never-admitted ones a terminal
      // wait span from dispatch to the rejection/withdrawal.
      if (attempt_started[static_cast<size_t>(attempt_idx)]) {
        EmitClientSpan(SpanKind::kExec, att.start_exec, now - att.start_exec,
                       attempt_idx, OutcomeName(oc), /*term=*/true);
      } else {
        EmitClientSpan(SpanKind::kQueueWait, att.dispatched, now - att.dispatched,
                       attempt_idx, OutcomeName(oc), /*term=*/true);
      }
    }
    if (ts != nullptr && attempt_started[static_cast<size_t>(attempt_idx)] &&
        now > att.start_exec) {
      ts->RecordExecution(att.start_exec, now);
    }
    if (!att.client_abandoned) {
      ResolveClient(attempt_idx, oc);
    }
  }

  // Completes one attempt successfully; delivery only if the client is
  // still waiting.
  void CompleteAttempt(SandboxState& s, size_t pos) {
    const InFlightReq req = s.inflight[pos];
    s.inflight.erase(s.inflight.begin() + static_cast<int>(pos));
    AttemptOutcome& att = result.attempts[static_cast<size_t>(req.attempt_idx)];
    att.outcome = Outcome::kOk;
    att.end = now;
    att.exec_duration = now - att.start_exec;
    attempt_open[static_cast<size_t>(req.attempt_idx)] = 0;
    --open_attempts;
    last_completion = std::max(last_completion, now);
    if (trace != nullptr) {
      EmitClientSpan(SpanKind::kExec, att.start_exec, now - att.start_exec,
                     req.attempt_idx, OutcomeName(Outcome::kOk), /*term=*/true);
    }
    if (ts != nullptr && now > att.start_exec) {
      ts->RecordExecution(att.start_exec, now);
    }
    if (att.client_abandoned) {
      return;  // The response has no one left to deliver to.
    }
    if (breaker.enabled()) {
      breaker.RecordSuccess();
    }
    RequestOutcome& out = result.requests[static_cast<size_t>(req.req_idx)];
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

  // Pulls queued attempts onto available capacity (multi-concurrency model).
  void PullGlobalQueue() {
    while (!global_queue.empty()) {
      SandboxState* best = nullptr;
      int eligible = 0;
      for (auto& s : sandboxes) {
        if (s.dead || s.initializing || s.draining) {
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
      Advance(*best);
      const int attempt_idx = global_queue.front();
      global_queue.pop_front();
      const bool cold = best->served == 0;
      StartAttempt(*best, attempt_idx, cold);
      best->rate = ComputeRate(*best);
      ScheduleNext(*best);
    }
  }

  // Sheds one attempt to make room in a full admission queue; returns false
  // when the incoming attempt itself was the victim (reject-newest).
  bool ShedFor(int attempt_idx) {
    ++result.shed_attempts;
    if (config.admission.shed == ShedPolicy::kRejectNewest) {
      FailAttempt(attempt_idx, Outcome::kRejected);
      return false;
    }
    // Reject-oldest: the head of the queue has waited longest and is the
    // most likely to time out anyway; fail it to admit the newcomer.
    const int victim = global_queue.front();
    global_queue.pop_front();
    FailAttempt(victim, Outcome::kRejected);
    return true;
  }

  // Single-concurrency admission pump: when capacity frees up (a sandbox
  // goes idle or dies), admit waiting attempts — warm reuse first, then
  // cold starts while under the instance cap. No-op unless the bounded
  // admission queue is enabled, so default runs never touch it.
  void PumpAdmission() {
    if (!config.admission.enabled || multi) {
      return;
    }
    while (!global_queue.empty()) {
      SandboxState* best = nullptr;
      for (auto& s : sandboxes) {
        if (s.dead || s.draining || s.initializing || !s.inflight.empty()) {
          continue;
        }
        if (s.ka_deadline >= 0 && s.ka_deadline <= now) {
          continue;
        }
        if (best == nullptr || s.ready_at > best->ready_at) {
          best = &s;
        }
      }
      const int attempt_idx = global_queue.front();
      if (best != nullptr) {
        global_queue.pop_front();
        Advance(*best);
        StartAttempt(*best, attempt_idx, /*cold=*/false);
        best->rate = ComputeRate(*best);
        ScheduleNext(*best);
        continue;
      }
      if (AliveCount() < config.max_instances) {
        global_queue.pop_front();
        SandboxState& fresh = CreateSandbox();
        fresh.pending_local.push_back(attempt_idx);
        result.attempts[static_cast<size_t>(attempt_idx)].sandbox_id = fresh.id;
        continue;
      }
      return;  // Still saturated; the queue keeps waiting.
    }
  }

  // Creates an attempt record for `req_idx` and routes it to a sandbox, the
  // global queue, or immediate rejection.
  void Dispatch(int req_idx) {
    const int attempt_no = next_attempt_no[static_cast<size_t>(req_idx)]++;
    AttemptOutcome att;
    att.req_idx = req_idx;
    att.attempt = attempt_no;
    att.dispatched = now;
    const int attempt_idx = static_cast<int>(result.attempts.size());
    result.attempts.push_back(att);
    attempt_open.push_back(1);
    attempt_started.push_back(0);
    ++open_attempts;
    result.requests[static_cast<size_t>(req_idx)].attempts = attempt_no;
    if (breaker.enabled() && !breaker.AllowDispatch(now)) {
      // Fast-fail at the client: the attempt never reaches the platform and
      // is never billed (and never starts a client-timeout clock).
      FailAttempt(attempt_idx, Outcome::kCircuitOpen);
      return;
    }
    if (config.retry.attempt_timeout > 0) {
      queue.push(
          {now + config.retry.attempt_timeout, EventType::kClientTimeout, -1, 0, attempt_idx});
    }
    if (!multi) {
      // Reuse the most recently used warm idle sandbox, else cold start.
      SandboxState* best = nullptr;
      for (auto& s : sandboxes) {
        if (s.dead || s.draining || s.initializing || !s.inflight.empty()) {
          continue;
        }
        if (s.ka_deadline >= 0 && s.ka_deadline <= now) {
          continue;  // Expiry event still queued but the window has passed.
        }
        if (best == nullptr || s.ready_at > best->ready_at) {
          best = &s;
        }
      }
      if (best != nullptr) {
        Advance(*best);
        StartAttempt(*best, attempt_idx, /*cold=*/false);
        best->rate = ComputeRate(*best);
        // ScheduleNext bumps the generation, which also invalidates the
        // pending KA-expiry event of the previously idle sandbox.
        ScheduleNext(*best);
        return;
      }
      if (config.admission.enabled && AliveCount() >= config.max_instances) {
        // Saturated: wait in the bounded admission queue instead of either
        // rejecting outright or scaling past the cap.
        if (static_cast<int>(global_queue.size()) >= config.admission.queue_depth &&
            !ShedFor(attempt_idx)) {
          return;  // The newcomer was the shed victim.
        }
        global_queue.push_back(attempt_idx);
        if (config.admission.queue_timeout > 0) {
          queue.push({now + config.admission.queue_timeout, EventType::kQueueTimeout, -1,
                      0, attempt_idx});
        }
        return;
      }
      if (config.faults.reject_on_overload && AliveCount() >= config.max_instances) {
        FailAttempt(attempt_idx, Outcome::kRejected);
        return;
      }
      SandboxState& fresh = CreateSandbox();
      fresh.pending_local.push_back(attempt_idx);
      result.attempts[static_cast<size_t>(attempt_idx)].sandbox_id = fresh.id;
      return;
    }
    // Multi-concurrency: 429 when the deployment is saturated — at the
    // instance cap with no spare concurrency anywhere and nothing warming up.
    if (config.faults.reject_on_overload && AliveCount() >= config.max_instances) {
      bool spare = false;
      for (const auto& s : sandboxes) {
        if (s.dead) {
          continue;
        }
        if (s.initializing || static_cast<int>(s.inflight.size()) < config.concurrency_limit) {
          spare = true;
          break;
        }
      }
      if (!spare) {
        FailAttempt(attempt_idx, Outcome::kRejected);
        return;
      }
    }
    // Queue at the ingress and let the pull logic place it. With admission
    // control the ingress queue is bounded: past the depth the shed policy
    // picks a victim, and waits are clocked against queue_timeout.
    if (config.admission.enabled) {
      if (static_cast<int>(global_queue.size()) >= config.admission.queue_depth &&
          !ShedFor(attempt_idx)) {
        return;
      }
      if (config.admission.queue_timeout > 0) {
        queue.push({now + config.admission.queue_timeout, EventType::kQueueTimeout, -1, 0,
                    attempt_idx});
      }
    }
    global_queue.push_back(attempt_idx);
    PullGlobalQueue();
    if (!global_queue.empty() && AliveCount() == 0) {
      // Scale from zero: start one instance immediately; any further
      // scale-out is metric-driven and therefore lags demand (paper §3.1).
      CreateSandbox();
    }
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
    for (const auto& s : sandboxes) {
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
        if (trace != nullptr) {
          Span sp;
          sp.kind = SpanKind::kInit;
          sp.group = kTrackGroupSandbox;
          sp.track = s.id;
          sp.start = s.created_at;
          sp.duration = now - s.created_at;
          sp.sandbox_id = s.id;
          sp.cold = true;
          sp.status = s.init_failed ? OutcomeName(Outcome::kInitFailure)
                                    : OutcomeName(Outcome::kOk);
          trace->Record(sp);
        }
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
            FailAttempt(attempt_idx, Outcome::kInitFailure);
          }
          s.pending_local.clear();
          if (multi && !global_queue.empty() && AliveCount() == 0) {
            CreateSandbox();  // The platform provisions a replacement.
          }
          break;
        }
        s.initializing = false;
        if (!s.pending_local.empty()) {
          for (int attempt_idx : s.pending_local) {
            if (!attempt_open[static_cast<size_t>(attempt_idx)]) {
              continue;  // Withdrawn by a client timeout.
            }
            StartAttempt(s, attempt_idx, /*cold=*/true);
          }
          s.pending_local.clear();
          if (!s.inflight.empty()) {
            s.rate = ComputeRate(s);
            ScheduleNext(s);
          } else {
            EnterIdle(s);  // Every waiting client gave up during init.
          }
        } else if (multi) {
          PullGlobalQueue();
          if (s.inflight.empty()) {
            EnterIdle(s);
          }
        } else if (s.inflight.empty()) {
          EnterIdle(s);
        }
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
            r.in_cpu_phase = true;
          }
        }
        bool crashed = false;
        for (size_t i = s.inflight.size(); i-- > 0;) {
          if (s.inflight[i].in_cpu_phase && s.inflight[i].remaining_cpu <= 0.5) {
            if (s.inflight[i].will_crash) {
              const int attempt_idx = s.inflight[i].attempt_idx;
              s.inflight.erase(s.inflight.begin() + static_cast<int>(i));
              AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
              att.exec_duration = now - att.start_exec;
              FailAttempt(attempt_idx, Outcome::kCrash);
              crashed = true;
            } else {
              CompleteAttempt(s, i);
            }
          }
        }
        if (crashed && config.faults.crash_kills_sandbox) {
          // Process death: co-resident in-flight requests die with it, and
          // the next arrival pays a cold start.
          for (const auto& r : s.inflight) {
            AttemptOutcome& att = result.attempts[static_cast<size_t>(r.attempt_idx)];
            att.exec_duration = now - att.start_exec;
            FailAttempt(r.attempt_idx, Outcome::kCrash);
          }
          s.inflight.clear();
          RetireSandbox(s);
          if (multi && !global_queue.empty() && AliveCount() == 0) {
            CreateSandbox();
          }
          break;
        }
        s.rate = ComputeRate(s);
        if (s.inflight.empty()) {
          if (s.draining) {
            RetireSandbox(s);  // Drain complete: the instance retires cleanly.
          } else {
            EnterIdle(s);
          }
          if (multi) {
            PullGlobalQueue();
          }
        } else {
          ScheduleNext(s);
        }
        break;
      }
      case EventType::kExecTimeout: {
        const int attempt_idx = ev.req_idx;
        if (!attempt_open[static_cast<size_t>(attempt_idx)] ||
            !attempt_started[static_cast<size_t>(attempt_idx)]) {
          break;  // Already concluded (finished, crashed, or sandbox died).
        }
        AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
        SandboxState& s = sandboxes[static_cast<size_t>(att.sandbox_id)];
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
        s.inflight.erase(s.inflight.begin() + static_cast<int>(pos));
        att.exec_duration = now - att.start_exec;  // Billed through the timeout.
        FailAttempt(attempt_idx, Outcome::kTimeout);
        s.rate = ComputeRate(s);
        if (s.inflight.empty()) {
          if (s.draining) {
            RetireSandbox(s);
          } else {
            EnterIdle(s);
          }
          if (multi) {
            PullGlobalQueue();
          }
        } else {
          ScheduleNext(s);
        }
        break;
      }
      case EventType::kClientTimeout: {
        const int attempt_idx = ev.req_idx;
        if (!attempt_open[static_cast<size_t>(attempt_idx)]) {
          break;  // The attempt concluded before the client gave up.
        }
        AttemptOutcome& att = result.attempts[static_cast<size_t>(attempt_idx)];
        if (att.client_abandoned) {
          break;
        }
        att.client_abandoned = true;
        if (!attempt_started[static_cast<size_t>(attempt_idx)]) {
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
          att.outcome = Outcome::kTimeout;
          att.end = now;
          attempt_open[static_cast<size_t>(attempt_idx)] = 0;
          --open_attempts;
          CountFailure(Outcome::kTimeout);
          if (trace != nullptr) {
            EmitClientSpan(SpanKind::kQueueWait, att.dispatched, now - att.dispatched,
                           attempt_idx, OutcomeName(Outcome::kTimeout), /*term=*/true);
          }
        }
        // Started attempts keep running (and billing) server-side; the
        // client moves on either way.
        ResolveClient(attempt_idx, Outcome::kTimeout);
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
        FailAttempt(attempt_idx, Outcome::kTimeout);
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
        for (const auto& r : s.inflight) {
          AttemptOutcome& att = result.attempts[static_cast<size_t>(r.attempt_idx)];
          att.exec_duration = now - att.start_exec;
          ++result.drain_killed_attempts;
          FailAttempt(r.attempt_idx, Outcome::kCrash);
        }
        s.inflight.clear();
        RetireSandbox(s);
        if (multi && !global_queue.empty() && AliveCount() == 0) {
          CreateSandbox();
        }
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
          // Scale down surplus idle instances.
          int to_remove = ready - desired;
          for (auto& s : sandboxes) {
            if (to_remove <= 0) {
              break;
            }
            if (!s.dead && !s.initializing && !s.draining && s.inflight.empty()) {
              Advance(s);
              RetireSandbox(s);
              --to_remove;
            }
          }
          if (config.scaledown_drains_busy) {
            // Graceful degradation: surplus busy instances stop taking new
            // work and get drain_deadline to finish what they hold.
            for (auto& s : sandboxes) {
              if (to_remove <= 0) {
                break;
              }
              if (!s.dead && !s.initializing && !s.draining && !s.inflight.empty()) {
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
        for (auto& s : sandboxes) {
          if (s.dead) {
            continue;
          }
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

    ArchiveRng(ar, "rng", rng);
    ArchiveRng(ar, "fault_rng", faults.rng());
    ArchiveBreaker(ar, "breaker", breaker);
    ArchiveScaler(ar, "scaler_samples", scaler);
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
        int type = static_cast<int>(e.type);
        ar.Field("k", type);
        if constexpr (Ar::kLoading) {
          e.type = static_cast<EventType>(type);
        }
        ar.Field("sb", e.sandbox_id);
        ar.Field("g", e.gen);
        ar.Field("r", e.req_idx);
        ar.EndElem();
      }
      ar.EndArray();
    }

    {
      std::vector<int64_t> gq(global_queue.begin(), global_queue.end());
      ar.I64Vec("global_queue", gq);
      if constexpr (Ar::kLoading) {
        global_queue.clear();
        for (const int64_t v : gq) {
          global_queue.push_back(static_cast<int>(v));
        }
      }
    }
    {
      std::vector<int64_t> nums(next_attempt_no.begin(), next_attempt_no.end());
      ar.I64Vec("next_attempt_no", nums);
      if constexpr (Ar::kLoading) {
        next_attempt_no.clear();
        for (const int64_t v : nums) {
          next_attempt_no.push_back(static_cast<int>(v));
        }
      }
    }
    {
      std::vector<int64_t> flags(attempt_open.begin(), attempt_open.end());
      ar.I64Vec("attempt_open", flags);
      if constexpr (Ar::kLoading) {
        attempt_open.clear();
        for (const int64_t v : flags) {
          attempt_open.push_back(static_cast<uint8_t>(v));
        }
      }
    }
    {
      std::vector<int64_t> flags(attempt_started.begin(), attempt_started.end());
      ar.I64Vec("attempt_started", flags);
      if constexpr (Ar::kLoading) {
        attempt_started.clear();
        for (const int64_t v : flags) {
          attempt_started.push_back(static_cast<uint8_t>(v));
        }
      }
    }

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
        {
          std::vector<int64_t> pend(s.pending_local.begin(), s.pending_local.end());
          ar.I64Vec("pending_local", pend);
          if constexpr (Ar::kLoading) {
            s.pending_local.clear();
            for (const int64_t v : pend) {
              s.pending_local.push_back(static_cast<int>(v));
            }
          }
        }
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
        int outcome = static_cast<int>(r.outcome);
        int last_error = static_cast<int>(r.last_error);
        ar.Field("outcome", outcome);
        ar.Field("last_error", last_error);
        if constexpr (Ar::kLoading) {
          r.outcome = static_cast<Outcome>(outcome);
          r.last_error = static_cast<Outcome>(last_error);
        }
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
        int outcome = static_cast<int>(a.outcome);
        ar.Field("outcome", outcome);
        if constexpr (Ar::kLoading) {
          a.outcome = static_cast<Outcome>(outcome);
        }
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
  const std::vector<std::string> errors = config.Validate();
  if (!errors.empty()) {
    std::string msg = "invalid PlatformSimConfig";
    for (const auto& e : errors) {
      msg += "; " + e;
    }
    throw std::invalid_argument(msg);
  }
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
    assert(i == 0 || arrivals[i] >= arrivals[i - 1]);
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
  for (auto& s : im.sandboxes) {
    im.Advance(s);
    if (!s.dead) {
      im.RetireSandbox(s);  // Emits the lifetime span for survivors.
    }
    SandboxAccounting acc;
    acc.sandbox_id = s.id;
    acc.created_at = s.created_at;
    acc.destroyed_at = im.now;
    acc.init_time = std::min(s.ready_at, im.now) - s.created_at;
    acc.busy_time = s.busy_time;
    acc.idle_time = s.idle_time;
    result.total_instance_seconds += MicrosToSecs(acc.destroyed_at - acc.created_at);
    result.sandboxes.push_back(acc);
  }
  for (const auto& a : result.attempts) {
    if (a.cold_start) {
      ++result.cold_starts;
    }
  }
  for (const auto& r : result.requests) {
    if (r.outcome == Outcome::kOk) {
      ++result.successes;
    }
  }
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
  assert(samples > 0);
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
