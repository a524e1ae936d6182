#include "src/cluster/fleet_sim.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/rng.h"
#include "src/common/validate.h"
#include "src/engine/event_queue.h"
#include "src/engine/warm_pool.h"
#include "src/integrity/archive.h"
#include "src/integrity/digest.h"

namespace faascost {

namespace {

// A function's live sandbox (single-concurrency: busy until free_at).
// Pools hold live sandboxes only, in creation order: a crashed or host-killed
// sandbox leaves at once, an idle one when first seen past keep-alive.
struct LiveSandbox {
  MicroSecs free_at = 0;
  size_t span_index = 0;
  int host = -1;  // Fault domain (only set when host faults are enabled).
};

// One dispatch (initial or retry) waiting to be processed at `time`, in
// (time, seq) order. Initial attempts stream from the arrival-sorted trace
// with seq = trace index, which reproduces the fault-free per-record
// iteration order exactly; retries and parked attempts take seqs from
// `next_seq`, which starts at the trace size, so the trace cursor wins every
// arrival tie. An attempt parked in an admission queue keeps its `ticket` as
// the re-queue seq so queue order stays FIFO across wake-ups.
struct PendingAttempt {
  MicroSecs time = 0;
  int64_t seq = 0;
  size_t trace_idx = 0;
  int attempt = 1;
  bool queued = false;  // Waiting in a function's admission queue.
  MicroSecs queued_since = 0;
  int64_t ticket = -1;
};

// The trace as the attempt queue's input: record i is request i's first
// attempt.
struct TraceArrivals {
  const std::vector<RequestRecord>* trace = nullptr;

  size_t size() const { return trace == nullptr ? 0 : trace->size(); }
  PendingAttempt At(size_t i) const {
    return {(*trace)[i].arrival, static_cast<int64_t>(i), i, 1};
  }
};

// The keys of a per-function map that `keep` accepts, ascending: hash-map
// order must never be observable in spans, sums or checkpoints.
template <typename Map, typename Keep>
std::vector<int64_t> SortedFids(const Map& map, Keep keep) {
  std::vector<int64_t> fids;
  fids.reserve(map.size());
  for (const auto& [fid, value] : map) {
    if (keep(value)) {
      fids.push_back(fid);
    }
  }
  std::sort(fids.begin(), fids.end());
  return fids;
}

constexpr auto kEveryEntry = [](const auto&) { return true; };

// The trace is outside input and the engine's cursor depends on arrival
// order, so both are validated on Start and Resume rather than trusted.
void RequireValidTrace(const std::vector<RequestRecord>& trace) {
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].exec_duration < 0) {
      throw std::invalid_argument("FleetEngine: record " + std::to_string(i) +
                                  " has negative exec_duration " +
                                  std::to_string(trace[i].exec_duration) + "us");
    }
    if (i > 0 && trace[i].arrival < trace[i - 1].arrival) {
      throw std::invalid_argument(
          "FleetEngine: trace must be sorted by arrival; record " + std::to_string(i) +
          " arrives at " + std::to_string(trace[i].arrival) + "us, before record " +
          std::to_string(i - 1) + " at " + std::to_string(trace[i - 1].arrival) + "us");
    }
  }
}

Usd SpanRate(const SandboxSpan& span, const FleetSimConfig& cfg) {
  return cfg.hardware_per_vcpu_second * span.vcpus +
         cfg.hardware_per_gb_second * MbToGb(span.mem_mb);
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
  CheckWithin(&errors, "keepalive", keepalive, 0, kMaxDuration, Ends::kClosed, "a century");
  CheckWithin(&errors, "init_duration", init_duration, 0, kMaxDuration, Ends::kClosed,
              "a century");
  CheckWithin(&errors, "ka_cost_share", ka_cost_share, 0.0, 1.0);
  CheckAtLeast(&errors, "hardware_per_vcpu_second", hardware_per_vcpu_second, 0.0);
  CheckAtLeast(&errors, "hardware_per_gb_second", hardware_per_gb_second, 0.0);
  CheckWithin(&errors, "failure_rate", failure_rate, 0.0, 1.0);
  CheckAtLeast(&errors, "max_exec_duration", max_exec_duration, 0, "0 disables");
  CheckAbove(&errors, "server.vcpus", server.vcpus, 0.0);
  CheckAbove(&errors, "server.mem_mb", server.mem_mb, 0.0);
  AppendErrors(&errors, retry.Validate(), "retry: ");
  AppendErrors(&errors, host_faults.Validate(), "host_faults: ");
  AppendErrors(&errors, admission.Validate(), "admission: ");
  CheckAtLeast(&errors, "max_sandboxes_per_function", max_sandboxes_per_function, 0,
               "0 = unbounded");
  if (admission.enabled) {
    CheckAbove(&errors, "max_sandboxes_per_function", max_sandboxes_per_function, 0,
               "admission control needs a capacity limit to queue against");
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

  // Initial attempts stream from the trace; the heap holds only retries and
  // attempts parked in admission queues.
  StreamedEventQueue<PendingAttempt, TraceArrivals> queue;
  int64_t next_seq = 0;
  // Per-function live sandbox pools, fed in global (arrival, seq) order.
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
  NetworkTotals net_totals;  // Copied into the result's network fields at Finish.
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

  void Attach(const std::vector<RequestRecord>& input, const BillingModel& bill) {
    RequireValidTrace(input);
    started = true;
    trace = &input;
    billing = bill;
    queue = StreamedEventQueue<PendingAttempt, TraceArrivals>(TraceArrivals{&input});
  }

  // A loaded state indexes the `records`-long trace, the sandbox spans and
  // the hosts; an index out of range would crash the run, so it is a
  // malformed checkpoint.
  void RequireIndicesInRange(size_t records) const {
    const auto check = [](const char* field, int64_t value, int64_t lo, int64_t end) {
      RequireInRange("fleet", field, value, lo, end);
    };
    const auto n = static_cast<int64_t>(records);
    const int hosts = config.host_faults.hosts;
    check("next_arrival", static_cast<int64_t>(queue.cursor()), 0, n + 1);
    check("e2e_latency length", static_cast<int64_t>(result.e2e_latency.size()), n, n + 1);
    check("next_host", host_faults.next_host(), 0, std::max(hosts, 1));
    for (const PendingAttempt& at : queue.heap()) {
      check("pending idx", static_cast<int64_t>(at.trace_idx), 0, n);
    }
    for (const int64_t fid : SortedFids(pools, kEveryEntry)) {
      for (const LiveSandbox& sb : pools.at(fid)) {
        check("pooled span", static_cast<int64_t>(sb.span_index), 0,
              static_cast<int64_t>(result.spans.size()));
        check("pooled host", sb.host, -1, hosts);
      }
    }
  }

  // --- Live sandbox pools, settled when touched ---
  //
  // Each host's failure schedule is a pure function of (config, seed), so
  // settling an idle sandbox only when it is next touched gives exactly what
  // an eager sweep of every sandbox on every arrival would.

  // Closes `sb` if its host failed while it sat idle in (free_at, upto]:
  // a drain of an idle sandbox retires it at once, so it ends at the failure.
  bool DiedIdle(const LiveSandbox& sb, MicroSecs upto) {
    if (!hosts_on || sb.host < 0) {
      return false;
    }
    const auto ev = host_faults.FirstFailureIn(sb.host, sb.free_at, upto);
    if (!ev.has_value()) {
      return false;
    }
    SandboxSpan& span = result.spans[sb.span_index];
    span.idle += ev->time - sb.free_at;
    span.destroyed_at = ev->time;
    ++result.host_fault_sandbox_kills;
    return true;
  }

  // Closes a sandbox whose keep-alive window has run out (or will, at
  // Finish): it lingers the full window unless its host dies first.
  void Retire(const LiveSandbox& sb) {
    if (DiedIdle(sb, sb.free_at + config.keepalive)) {
      return;
    }
    SandboxSpan& span = result.spans[sb.span_index];
    span.idle += config.keepalive;
    span.destroyed_at = sb.free_at + config.keepalive;
  }

  // Settles `pool` at `t` by the warm-pool rule (src/engine/warm_pool.h)
  // and returns the slot of the warm sandbox to reuse, or kNoWarm for a cold
  // start. Sandboxes idle past keep-alive retire first; then only the reuse
  // candidate is checked for host death, a dead one closing at its failure
  // time before the next candidate is tried.
  size_t PickWarm(std::vector<LiveSandbox>& pool, MicroSecs t) {
    ExpireIdle(pool, t, config.keepalive, [&](const LiveSandbox& sb) { Retire(sb); });
    size_t warm = LatestIdle(pool, t);
    while (warm != kNoWarm && DiedIdle(pool[warm], t)) {
      pool.erase(pool.begin() + static_cast<ptrdiff_t>(warm));
      warm = LatestIdle(pool, t);
    }
    return warm;
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

  // A span on the attempt's function track.
  Span FunctionSpan(SpanKind kind, const PendingAttempt& at, MicroSecs start,
                    MicroSecs duration) const {
    Span sp;
    sp.kind = kind;
    sp.group = kTrackGroupFleetFunction;
    sp.track = (*trace)[at.trace_idx].function_id;
    sp.start = start;
    sp.duration = duration;
    sp.req_idx = static_cast<int32_t>(at.trace_idx);
    sp.attempt = at.attempt;
    return sp;
  }

  // Concludes every failed attempt: counts it under its failure type, bills
  // it if it never `ran` (an executed attempt was billed where it ran),
  // feeds the breaker (a circuit-open fast-fail is the breaker's own
  // verdict), then schedules the retry or resolves the request. The breaker
  // sees the failure at `end`; the client, which also waits on the network,
  // at `client_end`.
  void FailAttempt(const PendingAttempt& at, Outcome oc, bool ran, MicroSecs end,
                   MicroSecs client_end) {
    ++result.failed_attempts;
    if (oc == Outcome::kCircuitOpen) {
      ++result.circuit_open_attempts;
    } else if (oc == Outcome::kRejected) {
      ++result.rejected_attempts;
    } else if (oc == Outcome::kTimeout) {
      ++(ran ? result.timeout_attempts : result.queue_timeout_attempts);
    } else if (oc == Outcome::kCrash) {
      ++result.crash_attempts;
    } else {
      ++result.init_failure_attempts;
    }
    if (!ran) {
      // No resources ran: only per-invocation fee rules apply (kCircuitOpen
      // is $0 by construction). The series' billed entry matches the
      // terminal kQueueWait span's price, end time and order, so
      // ReconcileBilledUsd is bitwise.
      ++result.attempts;
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
      if (ts != nullptr) {
        ts->RecordBilled(end, inv.total);
        ts->RecordWaste(end, WasteKind::kFailedAttempt, inv.total);
      }
      if (sink != nullptr) {
        const MicroSecs start = at.queued ? at.queued_since : at.time;
        Span sp = FunctionSpan(SpanKind::kQueueWait, at, start, end - start);
        sp.status = OutcomeName(oc);
        sp.terminal = true;
        sp.billed_micros = inv.billable_time;
        sp.billed_usd = inv.total;
        sink->Record(sp);
      }
    }
    if (breaker_on && oc != Outcome::kCircuitOpen) {
      BreakerFor((*trace)[at.trace_idx].function_id).RecordFailure(end);
    }
    if ((oc != Outcome::kRejected || config.retry.retry_rejected) &&
        at.attempt < config.retry.max_attempts) {
      const MicroSecs delay = config.retry.BackoffDelay(at.attempt, fault_rng);
      if (sink != nullptr) {
        sink->Record(FunctionSpan(SpanKind::kBackoff, at, client_end, delay));
      }
      queue.Push({client_end + delay, next_seq++, at.trace_idx, at.attempt + 1});
      ++result.retries;
      if (ts != nullptr) {
        ts->RecordRetry(client_end);
      }
    } else {
      ++result.retries_exhausted;
      ResolveTerminal(at, client_end, false);
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
    // or has exactly one live attempt chain, unstreamed or in the heap.
    const size_t open = queue.size();
    auditor->CheckLazy(
        static_cast<int64_t>(open) ==
            result.requests - result.successes - result.retries_exhausted,
        "fleet.request_conservation", now, config.fault_seed,
        [] { return "pending"; },
        [&] {
          return "pending=" + std::to_string(open) + " requests=" +
                 std::to_string(result.requests) + " successes=" +
                 std::to_string(result.successes) + " exhausted=" +
                 std::to_string(result.retries_exhausted);
        });
    // Admission-queue accounting: the global waiting counter, the sum of
    // per-function occupancies, and the queued flags in the heap (parked
    // attempts only ever live there) all agree.
    int64_t per_fn = 0;
    for (const auto& [fid, n] : queue_waiting) {
      auditor->CheckLazy(n >= 0, "fleet.queue_occupancy_nonnegative", now,
                         config.fault_seed,
                         [&] { return "function " + std::to_string(fid); },
                         [&] { return std::to_string(n); });
      per_fn += n;
    }
    int64_t flagged = 0;
    for (const PendingAttempt& at : queue.heap()) {
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
                         return "fees=" + JsonWriter::FormatDouble(result.fee_revenue) +
                                " total=" + JsonWriter::FormatDouble(result.revenue);
                       });
  }

  void StepOne() {
    PendingAttempt at = queue.Pop();
    if (auditor != nullptr && auditor->basic()) {
      auditor->CheckLazy(at.time >= now, "fleet.monotone_event_time", now,
                         config.fault_seed, [] { return "pending queue"; },
                         [&] {
                           return "attempt at t=" + std::to_string(at.time) +
                                  " after t=" + std::to_string(now);
                         });
    }
    now = at.time;
    ++attempts_processed;
    if (prof != nullptr) {
      // Depth counts attempts held in the heap, not the unstreamed trace.
      prof->CountEvent(0, at.time, queue.heap().size());
    }
    if (ts != nullptr) {
      ts->RecordArrivalQueued(at.time, waiting_now);
    }
    const RequestRecord& r = (*trace)[at.trace_idx];

    // Client circuit breaker: fast-fail without reaching the platform. Only
    // fresh dispatches are gated; an attempt already parked in an admission
    // queue is a continuation, not a new dispatch.
    if (breaker_on && !at.queued && !BreakerFor(r.function_id).AllowDispatch(at.time)) {
      FailAttempt(at, Outcome::kCircuitOpen, /*ran=*/false, at.time, at.time);
      return;
    }

    auto& pool = pools[r.function_id];
    // Reuse the most recently freed idle sandbox whose host survived.
    const size_t warm = PickWarm(pool, at.time);

    // Per-function sandbox cap: no warm sandbox and no room to scale out
    // means queueing (admission control), shedding, or plain rejection.
    if (warm == kNoWarm && cap > 0) {
      int busy = 0;
      MicroSecs next_free = std::numeric_limits<MicroSecs>::max();
      for (const auto& sb : pool) {
        if (sb.free_at > at.time) {
          ++busy;
          next_free = std::min(next_free, sb.free_at);
        }
      }
      if (busy >= cap) {
        // A cap without a queue is the classic 429 at capacity; a full queue
        // sheds the newcomer. The fleet model is tail-drop only;
        // reject-oldest lives in the event-driven PlatformSim.
        if (!config.admission.enabled ||
            (!at.queued && queue_waiting[r.function_id] >= config.admission.queue_depth)) {
          FailAttempt(at, Outcome::kRejected, /*ran=*/false, at.time, at.time);
          return;
        }
        int& waiting = queue_waiting[r.function_id];
        if (!at.queued) {
          ++waiting;
          ++waiting_now;
          ++result.queued_attempts;
          at.queued = true;
          at.queued_since = at.time;
          at.ticket = next_seq++;
        }
        const MicroSecs deadline = config.admission.queue_timeout > 0
                                       ? at.queued_since + config.admission.queue_timeout
                                       : std::numeric_limits<MicroSecs>::max();
        if (next_free > deadline) {
          // No sandbox frees before the queue timeout: fail at the deadline.
          --waiting;
          --waiting_now;
          result.queue_wait_seconds += MicrosToSecs(deadline - at.queued_since);
          FailAttempt(at, Outcome::kTimeout, /*ran=*/false, deadline, deadline);
          return;
        }
        // Wait for the earliest sandbox to free. Re-queuing under the
        // original ticket keeps the queue FIFO across wake-ups.
        PendingAttempt parked = at;
        parked.time = next_free;
        parked.seq = at.ticket;
        queue.Push(parked);
        return;
      }
    }

    // Dispatching now; leave the admission queue if we were parked in it.
    if (at.queued) {
      --queue_waiting[r.function_id];
      --waiting_now;
      result.queue_wait_seconds += MicrosToSecs(at.time - at.queued_since);
      if (sink != nullptr) {
        sink->Record(
            FunctionSpan(SpanKind::kQueueWait, at, at.queued_since, at.time - at.queued_since));
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

    const bool cold = (warm == kNoWarm);
    const size_t used_span = cold ? result.spans.size() : pool[warm].span_index;
    const MicroSecs init = cold ? config.init_duration : 0;
    int host = -1;
    if (hosts_on) {
      host = cold ? host_faults.PickHost(at.time) : pool[warm].host;
    }
    const MicroSecs body_start = at.time + init;
    MicroSecs end = body_start + effective;
    MicroSecs init_billed = init;
    bool host_kills_sandbox = false;
    if (hosts_on && host >= 0) {
      if (auto ev = host_faults.FirstFailureIn(host, at.time, end)) {
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
            init_billed = kill - at.time;
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
      LiveSandbox& sb = pool[warm];
      SandboxSpan& span = result.spans[used_span];
      span.idle += at.time - sb.free_at;
      span.busy += effective;
      ++span.requests;
      sb.free_at = end;
      if (oc == Outcome::kCrash || host_kills_sandbox) {
        // Process death or host loss: no KA linger, out of the pool.
        span.destroyed_at = end;
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(warm));
      }
    } else {
      SandboxSpan span;
      span.function_id = r.function_id;
      span.vcpus = r.alloc_vcpus;
      span.mem_mb = r.alloc_mem_mb;
      span.created_at = at.time;
      span.busy = init_billed + effective;
      span.requests = 1;
      span.host = host;
      if (oc == Outcome::kCrash || oc == Outcome::kInitFailure || host_kills_sandbox) {
        span.destroyed_at = end;  // Never joins the pool.
      } else {
        pool.push_back({end, used_span, host});
      }
      result.spans.push_back(span);
      ++result.cold_starts;
    }

    // Bill the attempt under the platform's failure rules.
    RequestRecord billed = r;
    billed.cold_start = cold;
    billed.init_duration = init_billed;  // Only the partial init ran on an init failure.
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
    const Invoice inv = ComputeInvoice(billing, billed);
    result.revenue += inv.total;
    result.fee_revenue += inv.invocation_cost;
    if (ts != nullptr) {
      // The billed add carries the same value / end time / order as the
      // terminal span below: bitwise reconciliation depends on it.
      ts->RecordDispatchBilled(at.time, end, cold, inv.total);
      ts->RecordExecution(at.time, end);
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
      if (cold && init_billed > 0) {
        Span in;
        in.kind = SpanKind::kInit;
        in.group = kTrackGroupFleetSandbox;
        in.track = static_cast<int64_t>(used_span);
        in.start = at.time;
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
      Span ex = FunctionSpan(SpanKind::kExec, at, at.time, end - at.time);
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
      RoundTrip trip;
      trip.zone = net->ZoneOf(hosts_on && host >= 0 ? host : r.function_id);
      trip.ok = oc == Outcome::kOk;
      trip.payload = net->PayloadFor(r.function_id, at.trace_idx, at.attempt - 1,
                                     r.req_bytes, r.resp_bytes, trip.ok);
      trip.sent = at.time;
      trip.returned = end;
      trip.label = FunctionSpan(SpanKind::kTransfer, at, at.time, 0);
      client_end = end + MeterRoundTrip(*net, trip, &net_totals, sink, ts);
    }

    if (oc == Outcome::kOk) {
      if (breaker_on) {
        BreakerFor(r.function_id).RecordSuccess();
      }
      ResolveTerminal(at, client_end, true);
    } else {
      FailAttempt(at, oc, /*ran=*/true, end, client_end);
    }

    if (auditor != nullptr && auditor->ScanDue(attempts_processed)) {
      AuditScan();
    }
  }

  // Walks the per-function map `map` as the array `key`: one element per
  // entry `keep` accepts, in ascending function id order, each its "fid"
  // then what `fields(fid)` walks. Loading rebuilds the map.
  template <typename Ar, typename Map, typename Keep, typename Fields>
  static void ArchiveByFid(Ar& ar, std::string_view key, Map& map, Keep keep, Fields fields) {
    std::vector<int64_t> fids;
    if constexpr (Ar::kLoading) {
      map.clear();
    } else {
      fids = SortedFids(map, keep);
    }
    fids.resize(ar.BeginArray(key, fids.size()));
    for (int64_t& fid : fids) {
      ar.BeginElem();
      ar.Field("fid", fid);
      fields(fid);
      ar.EndElem();
    }
    ar.EndArray();
  }

  // The complete mutable state, walked once for save, load, and digest (see
  // src/integrity/archive.h). The trace and billing model are inputs, not
  // state; maps are archived in sorted-key order and the heap in ascending
  // (time, seq) order, so the walk is canonical.
  template <typename Ar>
  void Archive(Ar& ar) {
    ar.Field("now", now);
    uint64_t cursor = queue.cursor();
    ar.Field("next_arrival", cursor);
    if constexpr (Ar::kLoading) {
      queue.set_cursor(static_cast<size_t>(cursor));
    }
    ar.Field("next_seq", next_seq);
    ar.Field("waiting_now", waiting_now);
    ar.Field("attempts_processed", attempts_processed);
    int next_host = host_faults.next_host();
    ar.Field("next_host", next_host);
    if constexpr (Ar::kLoading) {
      host_faults.set_next_host(next_host);
    }
    fault_rng.Archive(ar, "fault_rng");

    queue.ArchiveHeap(ar, "pending", [](Ar& a, PendingAttempt& at) {
      a.Field("t", at.time);
      a.Field("seq", at.seq);
      uint64_t idx = at.trace_idx;
      a.Field("idx", idx);
      if constexpr (Ar::kLoading) {
        at.trace_idx = static_cast<size_t>(idx);
      }
      a.Field("attempt", at.attempt);
      a.Field("queued", at.queued);
      a.Field("queued_since", at.queued_since);
      a.Field("ticket", at.ticket);
    });

    // Live pools only: an emptied pool is indistinguishable from none.
    const auto live = [](const std::vector<LiveSandbox>& pool) { return !pool.empty(); };
    ArchiveByFid(ar, "pools", pools, live, [&](int64_t fid) {
      std::vector<LiveSandbox>& pool = pools[fid];
      pool.resize(ar.BeginArray("sandboxes", pool.size()));
      for (LiveSandbox& sb : pool) {
        ar.BeginElem();
        ar.Field("available_at", sb.free_at);
        uint64_t span_index = sb.span_index;
        ar.Field("span", span_index);
        if constexpr (Ar::kLoading) {
          sb.span_index = static_cast<size_t>(span_index);
        }
        ar.Field("host", sb.host);
        ar.EndElem();
      }
      ar.EndArray();
    });
    ArchiveByFid(ar, "queue_waiting", queue_waiting, kEveryEntry,
                 [&](int64_t fid) { ar.Field("n", queue_waiting[fid]); });
    ArchiveByFid(ar, "breakers", breakers, kEveryEntry,
                 [&](int64_t fid) { BreakerFor(fid).Archive(ar); });

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

    ar.I64Vec("e2e_latency", result.e2e_latency);

    result.spans.resize(ar.BeginArray("spans", result.spans.size()));
    for (SandboxSpan& span : result.spans) {
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
};

FleetEngine::FleetEngine(FleetSimConfig config) {
  ThrowIfInvalid("FleetSimConfig", config.Validate());
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
  im.Attach(trace, billing);
  im.result.requests = static_cast<int64_t>(trace.size());
  im.result.e2e_latency.assign(trace.size(), 0);
  im.next_seq = static_cast<int64_t>(trace.size());
}

void FleetEngine::Resume(const std::vector<RequestRecord>& trace,
                         const BillingModel& billing, const JsonValue& state) {
  Impl& im = *impl_;
  if (im.started) {
    throw std::logic_error("FleetEngine::Resume on a started engine");
  }
  im.Attach(trace, billing);
  Loader ar(&state);
  im.Archive(ar);
  im.RequireIndicesInRange(trace.size());
}

void FleetEngine::AdvanceUntil(MicroSecs t) {
  Impl& im = *impl_;
  while (!im.queue.empty() && im.queue.next_time() <= t) {
    im.StepOne();
  }
}

void FleetEngine::RunToEnd() {
  Impl& im = *impl_;
  while (!im.queue.empty()) {
    im.StepOne();
  }
}

bool FleetEngine::done() const { return impl_->queue.empty(); }

MicroSecs FleetEngine::now() const { return impl_->now; }

FleetResult FleetEngine::Finish() {
  Impl& im = *impl_;
  if (im.finished) {
    throw std::logic_error("FleetEngine::Finish called twice");
  }
  im.finished = true;
  FleetResult& result = im.result;
  const FleetSimConfig& config = im.config;

  // Close every sandbox still in a pool: it lingers one keep-alive window
  // past its last use, unless its host dies mid-linger first (crashed and
  // host-killed sandboxes left their pools on the spot).
  for (const int64_t fid : SortedFids(im.pools, kEveryEntry)) {
    for (const LiveSandbox& sb : im.pools[fid]) {
      im.Retire(sb);
    }
  }
  for (const int64_t fid : SortedFids(im.breakers, kEveryEntry)) {
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
    result.net_transfers = im.net_totals.transfers;
    result.net_bytes = im.net_totals.bytes;
    result.network_transfer_usd = im.net_totals.transfer_usd;
    result.network_ops_usd = im.net_totals.ops_usd;
    result.network_detour_usd = im.net_totals.detour_usd;
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
