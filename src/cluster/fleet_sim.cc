#include "src/cluster/fleet_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/rng.h"
#include "src/integrity/archive.h"
#include "src/integrity/digest.h"

namespace faascost {

namespace {

// A function's live sandbox (single-concurrency: busy until available_at).
struct LiveSandbox {
  MicroSecs available_at = 0;
  size_t span_index = 0;
  bool dead = false;  // Destroyed by a crash or host loss; no reuse, no KA linger.
  int host = -1;      // Fault domain (only set when host faults are enabled).
};

// One dispatch (initial or retry) waiting to be processed. Ordering by
// (arrival, seq) with seq = trace index for initial attempts reproduces the
// fault-free per-record iteration order exactly. An attempt parked in an
// admission queue keeps its `ticket` as the re-queue seq so queue order stays
// FIFO across wake-ups.
struct PendingAttempt {
  MicroSecs arrival = 0;
  int64_t seq = 0;
  size_t trace_idx = 0;
  int attempt = 1;
  bool queued = false;  // Waiting in a function's admission queue.
  MicroSecs queued_since = 0;
  int64_t ticket = -1;

  bool operator>(const PendingAttempt& other) const {
    if (arrival != other.arrival) {
      return arrival > other.arrival;
    }
    return seq > other.seq;
  }
};

// priority_queue with the protected underlying container exposed: checkpoints
// serialize the heap array verbatim, so a restored queue pops in exactly the
// original order, tie-breaking included.
struct AttemptQueue : std::priority_queue<PendingAttempt, std::vector<PendingAttempt>,
                                          std::greater<PendingAttempt>> {
  std::vector<PendingAttempt>& raw() { return c; }
  const std::vector<PendingAttempt>& raw() const { return c; }
};

Usd SpanRate(const SandboxSpan& span, const FleetSimConfig& cfg) {
  return cfg.hardware_per_vcpu_second * span.vcpus +
         cfg.hardware_per_gb_second * MbToGb(span.mem_mb);
}

RequestRecord Billed(const RequestRecord& r, bool cold, const FleetSimConfig& cfg) {
  RequestRecord out = r;
  out.cold_start = cold;
  out.init_duration = cold ? cfg.init_duration : 0;
  return out;
}

uint64_t HashFleetConfig(const FleetSimConfig& c) {
  StateDigest d;
  d.MixLabel("fleet-config-v1");
  d.MixI64(c.keepalive);
  d.MixI64(c.init_duration);
  d.MixDouble(c.ka_cost_share);
  d.MixDouble(c.server.vcpus);
  d.MixDouble(c.server.mem_mb);
  d.MixI64(static_cast<int64_t>(c.placement));
  d.MixDouble(c.hardware_per_vcpu_second);
  d.MixDouble(c.hardware_per_gb_second);
  d.MixDouble(c.failure_rate);
  d.MixBool(c.use_trace_failure_rates);
  d.MixI64(c.max_exec_duration);
  d.MixI64(c.retry.max_attempts);
  d.MixI64(c.retry.backoff_base);
  d.MixDouble(c.retry.backoff_multiplier);
  d.MixI64(c.retry.backoff_cap);
  d.MixBool(c.retry.full_jitter);
  d.MixI64(c.retry.attempt_timeout);
  d.MixBool(c.retry.retry_rejected);
  d.MixI64(c.retry.breaker_threshold);
  d.MixI64(c.retry.breaker_cooldown);
  d.MixU64(c.fault_seed);
  d.MixI64(c.host_faults.hosts);
  d.MixDouble(c.host_faults.mtbf_seconds);
  d.MixDouble(c.host_faults.mttr_seconds);
  d.MixI64(c.host_faults.zones);
  d.MixDouble(c.host_faults.zone_outage_mtbf_seconds);
  d.MixDouble(c.host_faults.graceful_fraction);
  d.MixI64(c.host_faults.drain_deadline);
  d.MixI64(c.max_sandboxes_per_function);
  d.MixBool(c.admission.enabled);
  d.MixI64(c.admission.queue_depth);
  d.MixI64(c.admission.queue_timeout);
  d.MixI64(static_cast<int64_t>(c.admission.shed));
  return d.value();
}

}  // namespace

std::vector<std::string> FleetSimConfig::Validate() const {
  std::vector<std::string> errors;
  if (keepalive < 0) {
    errors.push_back("keepalive must be >= 0, got " + std::to_string(keepalive));
  }
  if (init_duration < 0) {
    errors.push_back("init_duration must be >= 0, got " + std::to_string(init_duration));
  }
  if (ka_cost_share < 0.0 || ka_cost_share > 1.0) {
    errors.push_back("ka_cost_share must be in [0, 1], got " +
                     std::to_string(ka_cost_share));
  }
  if (hardware_per_vcpu_second < 0.0 || hardware_per_gb_second < 0.0) {
    errors.push_back("hardware rates must be >= 0");
  }
  if (failure_rate < 0.0 || failure_rate > 1.0) {
    errors.push_back("failure_rate must be in [0, 1], got " +
                     std::to_string(failure_rate));
  }
  if (max_exec_duration < 0) {
    errors.push_back("max_exec_duration must be >= 0 (0 disables), got " +
                     std::to_string(max_exec_duration));
  }
  for (const std::string& e : retry.Validate()) {
    errors.push_back("retry: " + e);
  }
  for (const std::string& e : host_faults.Validate()) {
    errors.push_back("host_faults: " + e);
  }
  for (const std::string& e : admission.Validate()) {
    errors.push_back("admission: " + e);
  }
  if (max_sandboxes_per_function < 0) {
    errors.push_back("max_sandboxes_per_function must be >= 0 (0 = unbounded), got " +
                     std::to_string(max_sandboxes_per_function));
  }
  if (admission.enabled && max_sandboxes_per_function <= 0) {
    errors.push_back(
        "admission control needs max_sandboxes_per_function > 0: with an "
        "unbounded sandbox pool there is no capacity limit to queue against");
  }
  return errors;
}

struct FleetEngine::Impl {
  FleetSimConfig config;
  const std::vector<RequestRecord>* trace = nullptr;
  // Copied, not pointed to: billing models are small value structs and
  // callers routinely pass `MakeBillingModel(...)` temporaries that would
  // dangle by the time StepOne() invoices an attempt.
  BillingModel billing;

  FleetResult result;
  // The fault stream is separate from everything else and only drawn from
  // when a failure can actually fire, so a zero-fault config reproduces the
  // fault-oblivious simulation exactly. Stream 0 is the legacy
  // `seed ^ gamma` derivation, keeping pre-chaos goldens bit-identical.
  Rng fault_rng;
  HostFaultModel host_faults;
  bool hosts_on = false;
  MicroSecs drain = 0;
  bool breaker_on = false;
  int cap = 0;

  AttemptQueue pending;
  int64_t next_seq = 0;
  // Per-function sandbox pools, fed in global (arrival, seq) order.
  std::unordered_map<int64_t, std::vector<LiveSandbox>> pools;
  // Per-function admission queue occupancy and client circuit breakers.
  std::unordered_map<int64_t, int> queue_waiting;
  std::unordered_map<int64_t, CircuitBreaker> breakers;

  // --- Observability and integrity hooks (no-ops when null) ---
  TraceSink* sink = nullptr;
  TimeSeries* ts = nullptr;
  EngineProfiler* prof = nullptr;
  Auditor* auditor = nullptr;
  NetworkModel* net = nullptr;
  int64_t waiting_now = 0;  // Attempts currently parked in admission queues.

  MicroSecs now = 0;  // Arrival time of the last processed attempt.
  int64_t attempts_processed = 0;
  bool started = false;
  bool finished = false;

  explicit Impl(FleetSimConfig cfg)
      : config(std::move(cfg)),
        fault_rng(DeriveSeed(config.fault_seed, kFaultStream)),
        host_faults(config.host_faults, config.fault_seed),
        hosts_on(config.host_faults.enabled()),
        drain(config.host_faults.drain_deadline),
        breaker_on(config.retry.breaker_threshold > 0),
        cap(config.max_sandboxes_per_function),
        sink(config.trace_sink),
        ts(config.timeseries),
        prof(config.profiler),
        auditor(config.auditor),
        net(config.network) {
    if (prof != nullptr) {
      prof->RegisterEventType(0, "attempt");
    }
  }

  CircuitBreaker& BreakerFor(int64_t fid) {
    return breakers
        .try_emplace(fid, config.retry.breaker_threshold, config.retry.breaker_cooldown)
        .first->second;
  }

  // One metered hop of an attempt's payload: fold into the result, the
  // series, and the sink — same marginal value, same end timestamp, same
  // order on every side, so ReconcileTransferUsd compares bitwise.
  void MeterCharge(const TransferCharge& c, MicroSecs start,
                   const PendingAttempt& at, int64_t fid) {
    ++result.net_transfers;
    result.net_bytes += c.bytes;
    result.network_transfer_usd += c.usd;
    const MicroSecs end = start + c.time;
    if (ts != nullptr) {
      ts->RecordTransfer(end, c.bytes, c.usd);
    }
    if (sink != nullptr) {
      Span sp;
      sp.kind = SpanKind::kTransfer;
      sp.group = kTrackGroupFleetFunction;
      sp.track = fid;
      sp.start = start;
      sp.duration = c.time;
      sp.req_idx = static_cast<int32_t>(at.trace_idx);
      sp.attempt = at.attempt;
      sp.ref = c.bytes;
      sp.status = c.rerouted ? "rerouted" : "";
      sp.billed_usd = c.usd;
      sink->Record(sp);
    }
  }

  // The client's terminal resolution of a request, success or surrender.
  void ResolveTerminal(const PendingAttempt& at, MicroSecs when, bool ok) {
    result.e2e_latency[at.trace_idx] = when - (*trace)[at.trace_idx].arrival;
    if (ok) {
      ++result.successes;
    }
    if (ts != nullptr) {
      ts->RecordCompletion(when, ok, when - (*trace)[at.trace_idx].arrival);
    }
  }

  // A failed attempt: schedule the retry, or resolve the request if the
  // outcome is not retryable / the budget is spent.
  void HandleFailure(const PendingAttempt& at, MicroSecs end, bool retryable) {
    if (retryable && at.attempt < config.retry.max_attempts) {
      const MicroSecs delay = config.retry.BackoffDelay(at.attempt, fault_rng);
      if (sink != nullptr) {
        Span sp;
        sp.kind = SpanKind::kBackoff;
        sp.group = kTrackGroupFleetFunction;
        sp.track = (*trace)[at.trace_idx].function_id;
        sp.start = end;
        sp.duration = delay;
        sp.req_idx = static_cast<int32_t>(at.trace_idx);
        sp.attempt = at.attempt;
        sink->Record(sp);
      }
      pending.push({end + delay, next_seq++, at.trace_idx, at.attempt + 1});
      ++result.retries;
      if (ts != nullptr) {
        ts->RecordRetry(end);
      }
    } else {
      ++result.retries_exhausted;
      ResolveTerminal(at, end, false);
    }
  }

  // Bill an attempt that never reached a sandbox (shed, queue timeout,
  // breaker fast-fail): no resources ran, only per-invocation fee rules can
  // apply. kCircuitOpen is $0 by construction.
  void BillUnexecuted(const PendingAttempt& at, Outcome oc, MicroSecs end) {
    RequestRecord billed = (*trace)[at.trace_idx];
    billed.cold_start = false;
    billed.init_duration = 0;
    billed.exec_duration = 0;
    billed.cpu_time = 0;
    billed.outcome = oc;
    billed.attempt = at.attempt;
    const Invoice inv = ComputeInvoice(billing, billed);
    result.revenue += inv.total;
    result.fee_revenue += inv.invocation_cost;
    // Billed recording is co-located with the terminal span's pricing (same
    // value, same end time, same order) so ReconcileBilledUsd is bitwise.
    if (ts != nullptr) {
      ts->RecordBilled(end, inv.total);
      ts->RecordWaste(end, WasteKind::kFailedAttempt, inv.total);
    }
    if (sink != nullptr) {
      Span sp;
      sp.kind = SpanKind::kQueueWait;
      sp.group = kTrackGroupFleetFunction;
      sp.track = (*trace)[at.trace_idx].function_id;
      sp.start = at.queued ? at.queued_since : at.arrival;
      sp.duration = end - sp.start;
      sp.req_idx = static_cast<int32_t>(at.trace_idx);
      sp.attempt = at.attempt;
      sp.status = OutcomeName(oc);
      sp.terminal = true;
      sp.billed_micros = inv.billable_time;
      sp.billed_usd = inv.total;
      sink->Record(sp);
    }
  }

  // O(state) invariant scan (AuditLevel::kFull, cadence-gated over processed
  // attempts). See DESIGN.md §9 for the invariant catalog.
  void AuditScan() {
    if (auditor == nullptr) {
      return;
    }
    auditor->NoteScan();
    // Request conservation: every request is resolved (success or exhausted)
    // or has exactly one live attempt chain in the pending queue.
    auditor->CheckLazy(
        static_cast<int64_t>(pending.size()) ==
            result.requests - result.successes - result.retries_exhausted,
        "fleet.request_conservation", now, config.fault_seed,
        [] { return "pending"; },
        [&] {
          return "pending=" + std::to_string(pending.size()) + " requests=" +
                 std::to_string(result.requests) + " successes=" +
                 std::to_string(result.successes) + " exhausted=" +
                 std::to_string(result.retries_exhausted);
        });
    // Admission-queue accounting: the global waiting counter, the sum of
    // per-function occupancies, and the queued flags in the pending heap all
    // agree.
    int64_t per_fn = 0;
    for (const auto& [fid, n] : queue_waiting) {
      auditor->CheckLazy(n >= 0, "fleet.queue_occupancy_nonnegative", now,
                         config.fault_seed,
                         [&] { return "function " + std::to_string(fid); },
                         [&] { return std::to_string(n); });
      per_fn += n;
    }
    int64_t flagged = 0;
    for (const PendingAttempt& at : pending.raw()) {
      if (at.queued) {
        ++flagged;
      }
    }
    auditor->CheckLazy(per_fn == waiting_now && flagged == waiting_now,
                       "fleet.queue_accounting", now, config.fault_seed,
                       [] { return "admission queues"; },
                       [&] {
                         return "per_fn=" + std::to_string(per_fn) + " flagged=" +
                                std::to_string(flagged) + " counter=" +
                                std::to_string(waiting_now);
                       });
    // Capacity accounting: one sandbox span per cold start, ever.
    auditor->CheckLazy(
        result.cold_starts == static_cast<int64_t>(result.spans.size()),
        "fleet.capacity_accounting", now, config.fault_seed,
        [] { return "spans"; },
        [&] {
          return "cold_starts=" + std::to_string(result.cold_starts) +
                 " spans=" + std::to_string(result.spans.size());
        });
    // Failure taxonomy partitions the failed-attempt count.
    const int64_t taxonomy = result.crash_attempts + result.timeout_attempts +
                             result.init_failure_attempts + result.rejected_attempts +
                             result.queue_timeout_attempts +
                             result.circuit_open_attempts;
    auditor->CheckLazy(taxonomy == result.failed_attempts,
                       "fleet.failure_taxonomy", now, config.fault_seed,
                       [] { return "counters"; },
                       [&] {
                         return "taxonomy=" + std::to_string(taxonomy) +
                                " failed=" + std::to_string(result.failed_attempts);
                       });
    // Billed-time conservation: no span accrues negative busy or idle time.
    for (const SandboxSpan& span : result.spans) {
      auditor->CheckLazy(span.busy >= 0 && span.idle >= 0,
                         "fleet.span_time_accounting", now, config.fault_seed,
                         [&] {
                           return "function " + std::to_string(span.function_id);
                         },
                         [&] {
                           return "busy=" + std::to_string(span.busy) +
                                  " idle=" + std::to_string(span.idle);
                         });
    }
    // USD conservation: the fee component never exceeds the total invoiced.
    auditor->CheckLazy(result.fee_revenue <= result.revenue + 1e-9,
                       "fleet.usd_conservation", now, config.fault_seed,
                       [] { return "revenue"; },
                       [&] {
                         return "fees=" + std::to_string(result.fee_revenue) +
                                " total=" + std::to_string(result.revenue);
                       });
  }

  void StepOne() {
    PendingAttempt at = pending.top();
    pending.pop();
    if (auditor != nullptr && auditor->basic()) {
      auditor->CheckLazy(at.arrival >= now, "fleet.monotone_event_time", now,
                         config.fault_seed, [] { return "pending queue"; },
                         [&] {
                           return "attempt at t=" + std::to_string(at.arrival) +
                                  " after t=" + std::to_string(now);
                         });
    }
    now = at.arrival;
    ++attempts_processed;
    if (prof != nullptr) {
      prof->CountEvent(0, at.arrival, pending.size());
    }
    if (ts != nullptr) {
      ts->RecordArrivalQueued(at.arrival, waiting_now);
    }
    const RequestRecord& r = (*trace)[at.trace_idx];

    // Client circuit breaker: fast-fail without reaching the platform. Only
    // fresh dispatches are gated; an attempt already parked in an admission
    // queue is a continuation, not a new dispatch.
    if (breaker_on && !at.queued && !BreakerFor(r.function_id).AllowDispatch(at.arrival)) {
      ++result.attempts;
      ++result.failed_attempts;
      ++result.circuit_open_attempts;
      BillUnexecuted(at, Outcome::kCircuitOpen, at.arrival);
      HandleFailure(at, at.arrival, /*retryable=*/true);
      return;
    }

    auto& pool = pools[r.function_id];
    // Sweep idle sandboxes for host deaths, then reuse the most recently
    // freed idle unexpired survivor.
    LiveSandbox* reuse = nullptr;
    for (auto& sb : pool) {
      if (sb.dead || sb.available_at > at.arrival) {
        continue;
      }
      if (hosts_on && sb.host >= 0) {
        const MicroSecs idle_upto =
            std::min(at.arrival, sb.available_at + config.keepalive);
        if (auto ev = host_faults.FirstFailureIn(sb.host, sb.available_at, idle_upto)) {
          // Died while idle: a drain of an idle sandbox retires it at once.
          SandboxSpan& span = result.spans[sb.span_index];
          span.idle += ev->time - sb.available_at;
          span.destroyed_at = ev->time;
          sb.dead = true;
          ++result.host_fault_sandbox_kills;
          continue;
        }
      }
      if (at.arrival - sb.available_at <= config.keepalive &&
          (reuse == nullptr || sb.available_at > reuse->available_at)) {
        reuse = &sb;
      }
    }

    // Per-function sandbox cap: no warm sandbox and no room to scale out
    // means queueing (admission control), shedding, or plain rejection.
    if (reuse == nullptr && cap > 0) {
      int busy = 0;
      MicroSecs next_free = std::numeric_limits<MicroSecs>::max();
      for (const auto& sb : pool) {
        if (!sb.dead && sb.available_at > at.arrival) {
          ++busy;
          next_free = std::min(next_free, sb.available_at);
        }
      }
      if (busy >= cap) {
        if (!config.admission.enabled) {
          // A cap without a queue is the classic 429 at capacity.
          ++result.attempts;
          ++result.failed_attempts;
          ++result.rejected_attempts;
          BillUnexecuted(at, Outcome::kRejected, at.arrival);
          if (breaker_on) {
            BreakerFor(r.function_id).RecordFailure(at.arrival);
          }
          HandleFailure(at, at.arrival, config.retry.retry_rejected);
          return;
        }
        int& waiting = queue_waiting[r.function_id];
        if (!at.queued) {
          if (waiting >= config.admission.queue_depth) {
            // Full queue: shed the newcomer. The fleet model is tail-drop
            // only; reject-oldest lives in the event-driven PlatformSim.
            ++result.attempts;
            ++result.failed_attempts;
            ++result.rejected_attempts;
            BillUnexecuted(at, Outcome::kRejected, at.arrival);
            if (breaker_on) {
              BreakerFor(r.function_id).RecordFailure(at.arrival);
            }
            HandleFailure(at, at.arrival, config.retry.retry_rejected);
            return;
          }
          ++waiting;
          ++waiting_now;
          ++result.queued_attempts;
          at.queued = true;
          at.queued_since = at.arrival;
          at.ticket = next_seq++;
        }
        const MicroSecs deadline = config.admission.queue_timeout > 0
                                       ? at.queued_since + config.admission.queue_timeout
                                       : std::numeric_limits<MicroSecs>::max();
        if (next_free > deadline) {
          // No sandbox frees before the queue timeout: fail at the deadline.
          --waiting;
          --waiting_now;
          ++result.attempts;
          ++result.failed_attempts;
          ++result.queue_timeout_attempts;
          result.queue_wait_seconds += MicrosToSecs(deadline - at.queued_since);
          BillUnexecuted(at, Outcome::kTimeout, deadline);
          if (breaker_on) {
            BreakerFor(r.function_id).RecordFailure(deadline);
          }
          HandleFailure(at, deadline, /*retryable=*/true);
          return;
        }
        // Wait for the earliest sandbox to free. Re-queuing under the
        // original ticket keeps the queue FIFO across wake-ups.
        PendingAttempt parked = at;
        parked.arrival = next_free;
        parked.seq = at.ticket;
        pending.push(parked);
        return;
      }
    }

    // Dispatching now; leave the admission queue if we were parked in it.
    if (at.queued) {
      --queue_waiting[r.function_id];
      --waiting_now;
      result.queue_wait_seconds += MicrosToSecs(at.arrival - at.queued_since);
      if (sink != nullptr) {
        Span sp;
        sp.kind = SpanKind::kQueueWait;
        sp.group = kTrackGroupFleetFunction;
        sp.track = r.function_id;
        sp.start = at.queued_since;
        sp.duration = at.arrival - at.queued_since;
        sp.req_idx = static_cast<int32_t>(at.trace_idx);
        sp.attempt = at.attempt;
        sink->Record(sp);
      }
    }
    ++result.attempts;

    // Sample this attempt's fate. Crashes abort at a uniform point of the
    // execution; anything running past the platform timeout is cut there.
    double p = config.failure_rate;
    if (config.use_trace_failure_rates && r.failure_rate > 0.0) {
      p = r.failure_rate;
    }
    Outcome oc = Outcome::kOk;
    MicroSecs effective = r.exec_duration;
    if (p > 0.0 && fault_rng.Bernoulli(p)) {
      oc = Outcome::kCrash;
      effective = std::max<MicroSecs>(
          1, static_cast<MicroSecs>(static_cast<double>(r.exec_duration) *
                                    (1.0 - fault_rng.NextDouble())));
    }
    if (config.max_exec_duration > 0 && effective > config.max_exec_duration) {
      oc = Outcome::kTimeout;
      effective = config.max_exec_duration;
    }

    const bool cold = (reuse == nullptr);
    const MicroSecs init = cold ? config.init_duration : 0;
    int host = -1;
    if (hosts_on) {
      host = cold ? host_faults.PickHost(at.arrival) : reuse->host;
    }
    const MicroSecs body_start = at.arrival + init;
    MicroSecs end = body_start + effective;
    MicroSecs init_billed = init;
    bool host_kills_sandbox = false;
    if (hosts_on && host >= 0) {
      if (auto ev = host_faults.FirstFailureIn(host, at.arrival, end)) {
        // The host goes away while we run. A graceful drain grants the
        // deadline to finish; an abrupt crash (or a blown deadline) kills
        // the attempt where the host died. Either way the sandbox is gone.
        const MicroSecs kill = ev->graceful ? ev->time + drain : ev->time;
        host_kills_sandbox = true;
        ++result.host_fault_sandbox_kills;
        if (kill < end) {
          ++result.host_fault_attempt_kills;
          end = kill;
          if (kill < body_start) {
            oc = Outcome::kInitFailure;  // Died before init completed.
            init_billed = kill - at.arrival;
            effective = 0;
          } else {
            oc = Outcome::kCrash;
            effective = kill - body_start;
          }
        } else if (ev->graceful) {
          ++result.drain_survivals;  // Finished inside the drain window.
        }
      }
    }

    if (!cold) {
      SandboxSpan& span = result.spans[reuse->span_index];
      span.idle += at.arrival - reuse->available_at;
      span.busy += effective;
      ++span.requests;
      reuse->available_at = end;
      if (oc == Outcome::kCrash || host_kills_sandbox) {
        // Process death or host loss: no KA linger.
        reuse->dead = true;
        span.destroyed_at = end;
      }
    } else {
      SandboxSpan span;
      span.function_id = r.function_id;
      span.vcpus = r.alloc_vcpus;
      span.mem_mb = r.alloc_mem_mb;
      span.created_at = at.arrival;
      span.busy = init_billed + effective;
      span.requests = 1;
      span.host = host;
      LiveSandbox sb;
      sb.available_at = end;
      sb.span_index = result.spans.size();
      sb.host = host;
      if (oc == Outcome::kCrash || oc == Outcome::kInitFailure || host_kills_sandbox) {
        sb.dead = true;
        span.destroyed_at = end;
      }
      result.spans.push_back(span);
      pool.push_back(sb);
      ++result.cold_starts;
    }

    // Bill the attempt under the platform's failure rules.
    RequestRecord billed = Billed(r, cold, config);
    billed.outcome = oc;
    billed.attempt = at.attempt;
    if (oc != Outcome::kOk) {
      billed.exec_duration = effective;
      billed.cpu_time = r.exec_duration > 0
                            ? static_cast<MicroSecs>(static_cast<double>(r.cpu_time) *
                                                     static_cast<double>(effective) /
                                                     static_cast<double>(r.exec_duration))
                            : r.cpu_time;
    }
    if (oc == Outcome::kInitFailure) {
      billed.init_duration = init_billed;  // Only the partial init ran.
    }
    const Invoice inv = ComputeInvoice(billing, billed);
    result.revenue += inv.total;
    result.fee_revenue += inv.invocation_cost;
    if (ts != nullptr) {
      // The billed add carries the same value / end time / order as the
      // terminal span below: bitwise reconciliation depends on it.
      ts->RecordDispatchBilled(at.arrival, end, cold, inv.total);
      ts->RecordExecution(at.arrival, end);
      if (oc != Outcome::kOk) {
        ts->RecordWaste(end, WasteKind::kFailedAttempt, inv.total);
      } else if (cold && init_billed + effective > 0) {
        // Cold-start surcharge attribution: the init share of the attempt's
        // occupied time, priced at the attempt's average rate. A heuristic
        // (billing models differ on whether init bills), but a deterministic
        // one.
        ts->RecordWaste(end, WasteKind::kColdInit,
                        inv.total * (static_cast<double>(init_billed) /
                                     static_cast<double>(init_billed + effective)));
      }
    }

    if (sink != nullptr) {
      const size_t used_span = cold ? result.spans.size() - 1 : reuse->span_index;
      if (cold && init_billed > 0) {
        Span in;
        in.kind = SpanKind::kInit;
        in.group = kTrackGroupFleetSandbox;
        in.track = static_cast<int64_t>(used_span);
        in.start = at.arrival;
        in.duration = init_billed;
        in.req_idx = static_cast<int32_t>(at.trace_idx);
        in.attempt = at.attempt;
        in.sandbox_id = static_cast<int32_t>(used_span);
        in.cold = true;
        if (oc == Outcome::kInitFailure) {
          in.status = OutcomeName(oc);
        }
        sink->Record(in);
      }
      Span ex;
      ex.kind = SpanKind::kExec;
      ex.group = kTrackGroupFleetFunction;
      ex.track = r.function_id;
      ex.start = at.arrival;
      ex.duration = end - at.arrival;
      ex.req_idx = static_cast<int32_t>(at.trace_idx);
      ex.attempt = at.attempt;
      ex.sandbox_id = static_cast<int32_t>(used_span);
      ex.ref = static_cast<int64_t>(used_span);
      ex.status = OutcomeName(oc);
      ex.cold = cold;
      ex.terminal = true;
      ex.billed_micros = inv.billable_time;
      ex.billed_usd = inv.total;
      sink->Record(ex);
    }

    // Route the attempt's payloads over the network edge (null model = one
    // pointer test). The request rides internet -> zone at dispatch, the
    // response rides back at completion; both extend the client-perceived
    // end, never the sandbox occupancy (see FleetSimConfig::network).
    MicroSecs client_end = end;
    if (net != nullptr) {
      const int zone = net->ZoneOf(hosts_on && host >= 0 ? host : r.function_id);
      const AttemptPayload pl =
          net->PayloadFor(r.function_id, at.trace_idx, at.attempt - 1, r.req_bytes,
                          r.resp_bytes, oc == Outcome::kOk);
      TransferCharge in;
      if (pl.request_bytes > 0) {
        in = net->Transfer(NetworkModel::kInternet, zone, pl.request_bytes, at.arrival);
        MeterCharge(in, at.arrival, at, r.function_id);
      }
      TransferCharge back;
      if (pl.response_bytes > 0) {
        back = net->Transfer(zone, NetworkModel::kInternet, pl.response_bytes, end);
        MeterCharge(back, end, at, r.function_id);
      }
      result.network_ops_usd += net->MeterRequestOps();
      client_end = end + in.time + back.time;
      const Usd detour = in.detour_usd + back.detour_usd;
      result.network_detour_usd += detour;
      if (ts != nullptr) {
        // Disjoint waste attribution, first match wins: a failed attempt's
        // whole transfer spend is waste; a successful one only wastes the
        // outage-detour surcharge.
        if (oc != Outcome::kOk) {
          ts->RecordWaste(client_end, WasteKind::kFailedEgress, in.usd + back.usd);
        } else if (detour > 0.0) {
          ts->RecordWaste(client_end, WasteKind::kCrossZoneDetour, detour);
        }
      }
    }

    if (oc == Outcome::kOk) {
      if (breaker_on) {
        BreakerFor(r.function_id).RecordSuccess();
      }
      ResolveTerminal(at, client_end, true);
    } else {
      ++result.failed_attempts;
      if (oc == Outcome::kCrash) {
        ++result.crash_attempts;
      } else if (oc == Outcome::kTimeout) {
        ++result.timeout_attempts;
      } else {
        ++result.init_failure_attempts;
      }
      if (breaker_on) {
        BreakerFor(r.function_id).RecordFailure(end);
      }
      HandleFailure(at, client_end, /*retryable=*/true);
    }

    if (auditor != nullptr && auditor->ScanDue(attempts_processed)) {
      AuditScan();
    }
  }

  // The complete mutable state, walked once for save, load, and digest (see
  // src/integrity/archive.h). The trace and billing model are inputs, not
  // state; maps are archived in sorted-key order so the walk is canonical.
  template <typename Ar>
  void Archive(Ar& ar) {
    ar.Field("now", now);
    ar.Field("next_seq", next_seq);
    ar.Field("waiting_now", waiting_now);
    ar.Field("attempts_processed", attempts_processed);
    int next_host = host_faults.next_host();
    ar.Field("next_host", next_host);
    if constexpr (Ar::kLoading) {
      host_faults.set_next_host(next_host);
    }
    ArchiveRng(ar, "fault_rng", fault_rng);

    {
      std::vector<PendingAttempt>& heap = pending.raw();
      const size_t n = ar.BeginArray("pending", heap.size());
      if constexpr (Ar::kLoading) {
        heap.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        PendingAttempt& at = heap[i];
        ar.BeginElem();
        ar.Field("t", at.arrival);
        ar.Field("seq", at.seq);
        uint64_t idx = at.trace_idx;
        ar.Field("idx", idx);
        if constexpr (Ar::kLoading) {
          at.trace_idx = static_cast<size_t>(idx);
        }
        ar.Field("attempt", at.attempt);
        ar.Field("queued", at.queued);
        ar.Field("queued_since", at.queued_since);
        ar.Field("ticket", at.ticket);
        ar.EndElem();
      }
      ar.EndArray();
    }

    {
      std::vector<std::pair<int64_t, std::vector<LiveSandbox>>> sorted;
      if constexpr (!Ar::kLoading) {
        sorted.assign(pools.begin(), pools.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
      }
      const size_t n = ar.BeginArray("pools", sorted.size());
      if constexpr (Ar::kLoading) {
        sorted.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        ar.BeginElem();
        ar.Field("fid", sorted[i].first);
        std::vector<LiveSandbox>& pool = sorted[i].second;
        const size_t m = ar.BeginArray("sandboxes", pool.size());
        if constexpr (Ar::kLoading) {
          pool.resize(m);
        }
        for (size_t j = 0; j < m; ++j) {
          LiveSandbox& sb = pool[j];
          ar.BeginElem();
          ar.Field("available_at", sb.available_at);
          uint64_t span_index = sb.span_index;
          ar.Field("span", span_index);
          if constexpr (Ar::kLoading) {
            sb.span_index = static_cast<size_t>(span_index);
          }
          ar.Field("dead", sb.dead);
          ar.Field("host", sb.host);
          ar.EndElem();
        }
        ar.EndArray();
        ar.EndElem();
      }
      ar.EndArray();
      if constexpr (Ar::kLoading) {
        pools.clear();
        for (auto& [fid, pool] : sorted) {
          pools.emplace(fid, std::move(pool));
        }
      }
    }

    {
      std::vector<std::pair<int64_t, int>> sorted;
      if constexpr (!Ar::kLoading) {
        sorted.assign(queue_waiting.begin(), queue_waiting.end());
        std::sort(sorted.begin(), sorted.end());
      }
      const size_t n = ar.BeginArray("queue_waiting", sorted.size());
      if constexpr (Ar::kLoading) {
        sorted.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        ar.BeginElem();
        ar.Field("fid", sorted[i].first);
        ar.Field("n", sorted[i].second);
        ar.EndElem();
      }
      ar.EndArray();
      if constexpr (Ar::kLoading) {
        queue_waiting.clear();
        queue_waiting.insert(sorted.begin(), sorted.end());
      }
    }

    {
      std::vector<std::pair<int64_t, CircuitBreakerState>> sorted;
      if constexpr (!Ar::kLoading) {
        sorted.reserve(breakers.size());
        for (const auto& [fid, cb] : breakers) {
          sorted.emplace_back(fid, cb.SaveState());
        }
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
      }
      const size_t n = ar.BeginArray("breakers", sorted.size());
      if constexpr (Ar::kLoading) {
        sorted.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        ar.BeginElem();
        ar.Field("fid", sorted[i].first);
        CircuitBreakerState& st = sorted[i].second;
        ar.Field("state", st.state);
        ar.Field("consecutive_failures", st.consecutive_failures);
        ar.Field("open_until", st.open_until);
        ar.Field("probe_inflight", st.probe_inflight);
        ar.Field("trips", st.trips);
        ar.EndElem();
      }
      ar.EndArray();
      if constexpr (Ar::kLoading) {
        breakers.clear();
        for (const auto& [fid, st] : sorted) {
          BreakerFor(fid).LoadState(st);
        }
      }
    }

    ar.Begin("counters");
    ar.Field("requests", result.requests);
    ar.Field("attempts", result.attempts);
    ar.Field("cold_starts", result.cold_starts);
    ar.Field("failed_attempts", result.failed_attempts);
    ar.Field("crash_attempts", result.crash_attempts);
    ar.Field("timeout_attempts", result.timeout_attempts);
    ar.Field("init_failure_attempts", result.init_failure_attempts);
    ar.Field("retries", result.retries);
    ar.Field("retries_exhausted", result.retries_exhausted);
    ar.Field("successes", result.successes);
    ar.Field("rejected_attempts", result.rejected_attempts);
    ar.Field("queue_timeout_attempts", result.queue_timeout_attempts);
    ar.Field("circuit_open_attempts", result.circuit_open_attempts);
    ar.Field("queued_attempts", result.queued_attempts);
    ar.Field("queue_wait_seconds", result.queue_wait_seconds);
    ar.Field("host_fault_attempt_kills", result.host_fault_attempt_kills);
    ar.Field("host_fault_sandbox_kills", result.host_fault_sandbox_kills);
    ar.Field("drain_survivals", result.drain_survivals);
    ar.Field("revenue", result.revenue);
    ar.Field("fee_revenue", result.fee_revenue);
    ar.End();

    {
      std::vector<int64_t> e2e(result.e2e_latency.begin(), result.e2e_latency.end());
      ar.I64Vec("e2e_latency", e2e);
      if constexpr (Ar::kLoading) {
        result.e2e_latency.assign(e2e.begin(), e2e.end());
      }
    }

    {
      const size_t n = ar.BeginArray("spans", result.spans.size());
      if constexpr (Ar::kLoading) {
        result.spans.resize(n);
      }
      for (size_t i = 0; i < n; ++i) {
        SandboxSpan& span = result.spans[i];
        ar.BeginElem();
        ar.Field("fid", span.function_id);
        ar.Field("vcpus", span.vcpus);
        ar.Field("mem_mb", span.mem_mb);
        ar.Field("created_at", span.created_at);
        ar.Field("destroyed_at", span.destroyed_at);
        ar.Field("busy", span.busy);
        ar.Field("idle", span.idle);
        ar.Field("requests", span.requests);
        ar.Field("host", span.host);
        ar.EndElem();
      }
      ar.EndArray();
    }
  }
};

FleetEngine::FleetEngine(FleetSimConfig config) {
  const std::vector<std::string> errors = config.Validate();
  if (!errors.empty()) {
    std::string msg = "invalid FleetSimConfig";
    for (const auto& e : errors) {
      msg += "; " + e;
    }
    throw std::invalid_argument(msg);
  }
  impl_ = std::make_unique<Impl>(std::move(config));
}

FleetEngine::~FleetEngine() = default;
FleetEngine::FleetEngine(FleetEngine&&) noexcept = default;
FleetEngine& FleetEngine::operator=(FleetEngine&&) noexcept = default;

void FleetEngine::Start(const std::vector<RequestRecord>& trace,
                        const BillingModel& billing) {
  Impl& im = *impl_;
  if (im.started) {
    throw std::logic_error("FleetEngine::Start called twice");
  }
  im.started = true;
  im.trace = &trace;
  im.billing = billing;
  im.result.requests = static_cast<int64_t>(trace.size());
  im.result.e2e_latency.assign(trace.size(), 0);
  for (size_t i = 0; i < trace.size(); ++i) {
    assert(trace[i].exec_duration >= 0);
    im.pending.push({trace[i].arrival, static_cast<int64_t>(i), i, 1});
  }
  im.next_seq = static_cast<int64_t>(trace.size());
}

void FleetEngine::Resume(const std::vector<RequestRecord>& trace,
                         const BillingModel& billing, const JsonValue& state) {
  Impl& im = *impl_;
  if (im.started) {
    throw std::logic_error("FleetEngine::Resume on a started engine");
  }
  im.started = true;
  im.trace = &trace;
  im.billing = billing;
  Loader ar(&state);
  im.Archive(ar);
}

void FleetEngine::AdvanceUntil(MicroSecs t) {
  Impl& im = *impl_;
  while (!im.pending.empty() && im.pending.top().arrival <= t) {
    im.StepOne();
  }
}

void FleetEngine::RunToEnd() {
  Impl& im = *impl_;
  while (!im.pending.empty()) {
    im.StepOne();
  }
}

bool FleetEngine::done() const { return impl_->pending.empty(); }

MicroSecs FleetEngine::now() const { return impl_->now; }

FleetResult FleetEngine::Finish() {
  Impl& im = *impl_;
  if (im.finished) {
    throw std::logic_error("FleetEngine::Finish called twice");
  }
  im.finished = true;
  FleetResult& result = im.result;
  const FleetSimConfig& config = im.config;

  // Close every surviving sandbox: it lingers one keep-alive window past its
  // last use (crashed sandboxes were destroyed on the spot), unless its host
  // dies mid-linger first.
  // Iterate pools in sorted key order: the hash-map order must never be
  // observable, and this loop touches spans that feed serialized artifacts.
  std::vector<int64_t> pool_fids;
  pool_fids.reserve(im.pools.size());
  for (const auto& [fid, pool] : im.pools) {
    pool_fids.push_back(fid);
  }
  std::sort(pool_fids.begin(), pool_fids.end());
  for (const int64_t fid : pool_fids) {
    for (const auto& sb : im.pools[fid]) {
      if (sb.dead) {
        continue;
      }
      SandboxSpan& span = result.spans[sb.span_index];
      if (im.hosts_on && sb.host >= 0) {
        if (auto ev = im.host_faults.FirstFailureIn(
                sb.host, sb.available_at, sb.available_at + config.keepalive)) {
          span.idle += ev->time - sb.available_at;
          span.destroyed_at = ev->time;
          ++result.host_fault_sandbox_kills;
          continue;
        }
      }
      span.idle += config.keepalive;
      span.destroyed_at = sb.available_at + config.keepalive;
    }
  }
  // A commutative sum today, but iterate deterministically anyway so a
  // future non-commutative use cannot silently inherit hash-map order.
  std::vector<int64_t> breaker_fids;
  breaker_fids.reserve(im.breakers.size());
  for (const auto& [fid, cb] : im.breakers) {
    breaker_fids.push_back(fid);
  }
  std::sort(breaker_fids.begin(), breaker_fids.end());
  for (const int64_t fid : breaker_fids) {
    result.breaker_trips += im.breakers.at(fid).trips();
  }
  if (im.sink != nullptr) {
    for (size_t i = 0; i < result.spans.size(); ++i) {
      const SandboxSpan& span = result.spans[i];
      Span sp;
      sp.kind = SpanKind::kSandboxLife;
      sp.group = kTrackGroupFleetSandbox;
      sp.track = static_cast<int64_t>(i);
      sp.start = span.created_at;
      sp.duration = span.destroyed_at - span.created_at;
      sp.sandbox_id = static_cast<int32_t>(i);
      sp.ref = static_cast<int64_t>(i);
      im.sink->Record(sp);
    }
  }
  if (im.prof != nullptr) {
    im.prof->AddRngDraws(im.fault_rng.draw_count());
    im.prof->AddRngDraws(im.host_faults.TotalRngDraws());
  }

  if (im.net != nullptr) {
    result.network_bill = im.net->bill();
  }
  result.sandboxes = static_cast<int64_t>(result.spans.size());
  for (const auto& span : result.spans) {
    result.sandbox_seconds += MicrosToSecs(span.destroyed_at - span.created_at);
    result.busy_seconds += MicrosToSecs(span.busy);
    result.idle_seconds += MicrosToSecs(span.idle);
    const Usd rate = SpanRate(span, config);
    result.hardware_cost += rate * MicrosToSecs(span.busy) +
                            rate * config.ka_cost_share * MicrosToSecs(span.idle);
  }
  if (result.revenue > 0.0) {
    result.margin = (result.revenue - result.hardware_cost) / result.revenue;
  }

  // Pack the sandbox spans onto servers to find the fleet high-water mark.
  struct Event {
    MicroSecs time;
    bool create;
    size_t span;
  };
  std::vector<Event> events;
  events.reserve(result.spans.size() * 2);
  for (size_t i = 0; i < result.spans.size(); ++i) {
    events.push_back({result.spans[i].created_at, true, i});
    events.push_back({result.spans[i].destroyed_at, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.create < b.create;  // Process destroys before creates at ties.
  });
  ClusterPlacer placer(config.server, config.placement);
  std::vector<Placement> tickets(result.spans.size());
  for (const auto& ev : events) {
    const SandboxSpan& span = result.spans[ev.span];
    if (ev.create) {
      tickets[ev.span] = placer.Place({span.vcpus, span.mem_mb});
      result.peak_servers = std::max(result.peak_servers, placer.active_server_count());
    } else {
      placer.Release(tickets[ev.span]);
    }
  }
  return std::move(result);
}

void FleetEngine::SaveState(JsonWriter& w) {
  Saver ar(&w);
  w.BeginObject();
  impl_->Archive(ar);
  w.EndObject();
}

uint64_t FleetEngine::Digest() {
  StateDigest d;
  d.MixLabel("fleet-state-v1");
  Digester ar(&d);
  impl_->Archive(ar);
  return d.value();
}

uint64_t FleetEngine::ConfigHash() const { return HashFleetConfig(impl_->config); }

uint64_t FleetEngine::DigestTrace(const std::vector<RequestRecord>& trace) {
  StateDigest d;
  d.MixLabel("fleet-trace-v1");
  d.MixU64(trace.size());
  for (const RequestRecord& r : trace) {
    d.MixI64(r.function_id);
    d.MixI64(r.arrival);
    d.MixI64(r.exec_duration);
    d.MixI64(r.cpu_time);
    d.MixDouble(r.alloc_vcpus);
    d.MixDouble(r.alloc_mem_mb);
    d.MixDouble(r.used_mem_mb);
    d.MixBool(r.cold_start);
    d.MixI64(r.init_duration);
    d.MixI64(static_cast<int64_t>(r.outcome));
    d.MixI64(r.attempt);
    d.MixDouble(r.failure_rate);
  }
  return d.value();
}

FleetResult SimulateFleet(const std::vector<RequestRecord>& trace,
                          const BillingModel& billing, const FleetSimConfig& config) {
  FleetEngine engine(config);
  engine.Start(trace, billing);
  engine.RunToEnd();
  return engine.Finish();
}

std::vector<EconomicsBucket> BucketEconomics(const FleetResult& result,
                                             const std::vector<RequestRecord>& trace,
                                             const BillingModel& billing,
                                             const FleetSimConfig& config, int buckets) {
  // Bucket counts arrive from CLI flags and bench parameters; validate in
  // every build type (the default build defines NDEBUG).
  if (buckets <= 0) {
    throw std::invalid_argument("BucketEconomics: buckets must be > 0, got " +
                                std::to_string(buckets));
  }
  struct FnAgg {
    int64_t requests = 0;
    Usd revenue = 0.0;
    Usd cost = 0.0;
    int64_t cold = 0;
  };
  std::unordered_map<int64_t, FnAgg> per_fn;

  // Cost and cold starts from the spans.
  for (const auto& span : result.spans) {
    FnAgg& agg = per_fn[span.function_id];
    const Usd rate = SpanRate(span, config);
    agg.cost += rate * MicrosToSecs(span.busy) +
                rate * config.ka_cost_share * MicrosToSecs(span.idle);
    ++agg.cold;
  }
  // Revenue approximated per request with warm billing plus the per-span
  // cold-start surcharge (exact enough for bucketing).
  for (const auto& r : trace) {
    FnAgg& agg = per_fn[r.function_id];
    ++agg.requests;
    RequestRecord warm = r;
    warm.cold_start = false;
    warm.init_duration = 0;
    agg.revenue += ComputeInvoice(billing, warm).total;
  }
  if (billing.billable_time == BillableTime::kTurnaround) {
    for (const auto& span : result.spans) {
      FnAgg& agg = per_fn[span.function_id];
      // The init duration billed at the sandbox's allocation rate.
      RequestRecord init_only;
      init_only.exec_duration = 0;
      init_only.cpu_time = 0;
      init_only.init_duration = config.init_duration;
      init_only.cold_start = true;
      init_only.alloc_vcpus = span.vcpus;
      init_only.alloc_mem_mb = span.mem_mb;
      agg.revenue += ComputeInvoice(billing, init_only).resource_cost;
    }
  }

  std::vector<std::pair<int64_t, FnAgg>> sorted(per_fn.begin(), per_fn.end());
  // Tie-break on function id: without it, functions with equal request
  // counts would keep their unordered_map order, and the bucket boundaries
  // (and the serialized economics table) would depend on the hash seed.
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second.requests != b.second.requests) {
      return a.second.requests > b.second.requests;
    }
    return a.first < b.first;
  });

  std::vector<EconomicsBucket> out(static_cast<size_t>(buckets));
  for (size_t i = 0; i < sorted.size(); ++i) {
    const size_t b = i * static_cast<size_t>(buckets) / sorted.size();
    EconomicsBucket& bucket = out[b];
    ++bucket.functions;
    bucket.requests += sorted[i].second.requests;
    bucket.revenue += sorted[i].second.revenue;
    bucket.hardware_cost += sorted[i].second.cost;
    bucket.cold_start_rate += static_cast<double>(sorted[i].second.cold);
  }
  for (auto& bucket : out) {
    if (bucket.requests > 0) {
      bucket.cold_start_rate /= static_cast<double>(bucket.requests);
    }
  }
  return out;
}

}  // namespace faascost
