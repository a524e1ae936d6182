#include "src/workflow/workflow_sim.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/validate.h"
#include "src/engine/event_queue.h"
#include "src/engine/warm_pool.h"

namespace faascost {

std::vector<std::string> WorkflowSimConfig::Validate() const {
  std::vector<std::string> errors;
  CheckAtLeast(&errors, "workflows", workflows, 0);
  if (workflows > 0 && dags.empty()) {
    errors.push_back("workflows > 0 requires at least one dag");
  }
  for (const WorkflowDag& dag : dags) {
    AppendErrors(&errors, dag.Validate());
  }
  CheckAbove(&errors, "wps", wps, 0.0);
  CheckWithin(&errors, "keepalive", keepalive, 0, kMaxDuration, Ends::kClosed, "a century");
  CheckWithin(&errors, "init_mean", init_mean, 0, kMaxDuration, Ends::kOpenLow, "a century");
  CheckWithin(&errors, "init_jitter", init_jitter, 0.0, 1.0);
  CheckWithin(&errors, "failure_rate", failure_rate, 0.0, 1.0);
  CheckWithin(&errors, "init_failure_rate", init_failure_rate, 0.0, 1.0);
  CheckAtLeast(&errors, "zones", zones, 1);
  for (size_t i = 0; i < outages.size(); ++i) {
    AppendErrors(&errors, outages[i].Validate(), "outages[", i, "].");
  }
  AppendErrors(&errors, policy.Validate());
  CheckAtLeast(&errors, "pricing.per_state_transition", pricing.per_state_transition, 0.0);
  CheckAtLeast(&errors, "pricing.dlq_write_fee", pricing.dlq_write_fee, 0.0);
  CheckAtLeast(&errors, "pricing.dlq_read_fee", pricing.dlq_read_fee, 0.0);
  return errors;
}

namespace {

enum class EvKind { kOutageStart, kArrival, kDispatch, kComplete, kHedgeFire };

// kDispatch flavors.
constexpr int kFlavorClient = 0;   // First attempt or client retry.
constexpr int kFlavorRedrive = 1;  // Platform-side async redrive.

struct Event {
  MicroSecs time = 0;
  int64_t seq = 0;
  EvKind kind = EvKind::kArrival;
  int64_t wf = -1;
  int hop = -1;
  int64_t idx = -1;  // Attempt row (kComplete/kHedgeFire) or outage index.
  int flavor = kFlavorClient;
};

// Workflow arrivals as the event queue's input: workflow `wf` arrives at
// wf / wps seconds with seq `first_seq + wf`, the seq it had when every
// arrival was pushed at start, so ties pop in the same order.
struct WorkflowArrivals {
  int64_t workflows = 0;
  double wps = 1.0;
  int64_t first_seq = 0;

  size_t size() const { return static_cast<size_t>(workflows); }
  Event At(size_t i) const {
    const int64_t wf = static_cast<int64_t>(i);
    const MicroSecs t = static_cast<MicroSecs>(std::llround(
        static_cast<double>(wf) * static_cast<double>(kMicrosPerSec) / wps));
    return {t, first_seq + wf, EvKind::kArrival, wf, -1, -1, kFlavorClient};
  }
};

struct Sandbox {
  MicroSecs free_at = 0;
};

// One deployed function (a (dag, hop) pair), shared across every workflow
// instance of that dag: warm pool + the client fleet's circuit breaker.
struct FunctionState {
  std::vector<Sandbox> warm;
  CircuitBreaker breaker{0, 0};
  bool breaker_open_last = false;
};

struct HopState {
  int succeeded_parents = 0;
  int terminal_parents = 0;
  bool dispatched = false;
  bool resolved = false;
  bool success = false;
  // The quorum join this hop feeds already fired: the current attempt runs
  // to completion (billed), but no further retries/redrives are spent.
  bool straggler = false;
  int total_attempts = 0;   // RNG-ordinal counter (client + hedge + redrive).
  int client_attempts = 0;  // Sync client attempts, incl. kCircuitOpen rows.
  int redrives = 0;
  std::vector<int64_t> open;  // Open attempt rows, ascending.
  // Earliest time every inbound edge payload has landed (network runs only):
  // the first dispatch waits for it.
  MicroSecs data_ready = 0;
};

struct WfState {
  MicroSecs arrival = 0;
  int dag = 0;
  std::vector<HopState> hops;
  int pending_sinks = 0;
  int failed_sinks = 0;
  bool done = false;
  bool degraded = false;
  // Outcome of the first non-straggler hop that failed terminally.
  Outcome root_cause = Outcome::kOk;
  Outcome outcome = Outcome::kOk;
  MicroSecs end = 0;
  Usd usd_attempts = 0.0;
  int64_t transitions = 0;
  int64_t dead_letters = 0;
  Usd usd_network = 0.0;
  Usd usd_net_detour = 0.0;
  // Latest sink-egress landing time: the client has not "seen" the result
  // until its payload arrives, so ws.end extends to cover it.
  MicroSecs net_end = 0;
};

// Engine-private per-attempt bookkeeping, parallel to result.attempts.
struct AttemptExtra {
  bool closed = false;
  int zone = 0;
  bool survives = false;  // Sandbox outlives the attempt (kOk / mid-exec timeout).
  MicroSecs backoff = 0;  // Pre-drawn client retry backoff.
};

class Engine {
 public:
  Engine(const WorkflowSimConfig& cfg, const BillingModel& billing, uint64_t seed)
      : cfg_(cfg),
        billing_(billing),
        seed_(seed),
        events_(WorkflowArrivals{cfg.workflows, cfg.wps,
                                 static_cast<int64_t>(cfg.outages.size())}),
        outages_(cfg.outages) {
    for (ZonalOutageSpec& o : outages_) {
      o.zone %= cfg.zones;
    }
  }

  WorkflowSimResult Run();

 private:
  const WorkflowDag& Dag(int d) const { return cfg_.dags[static_cast<size_t>(d)]; }
  const HopSpec& Spec(int d, int h) const {
    return Dag(d).hops[static_cast<size_t>(h)];
  }
  int ZoneOf(const HopSpec& spec) const { return spec.zone % cfg_.zones; }
  FunctionState& Function(int d, int h) {
    return functions_[static_cast<size_t>(d)][static_cast<size_t>(h)];
  }

  uint64_t AttemptSeed(int64_t wf, int hop, int ordinal) const {
    const uint64_t wf_seed =
        DeriveSeed(seed_, kWorkflowStreamBase + static_cast<uint64_t>(wf));
    return DeriveSeed(wf_seed, static_cast<uint64_t>(hop) * kMaxAttemptsPerHop +
                                   static_cast<uint64_t>(ordinal));
  }

  void Schedule(Event e) {
    e.seq = next_seq_++;
    events_.Push(e);
  }

  bool InOutage(int zone, MicroSecs t) const {
    for (const ZonalOutageSpec& o : outages_) {
      if (o.Covers(zone, t)) {
        return true;
      }
    }
    return false;
  }

  MicroSecs SampleInit(Rng& rng) const {
    if (cfg_.init_jitter > 0.0) {
      const double f = rng.Uniform(1.0 - cfg_.init_jitter, 1.0 + cfg_.init_jitter);
      return std::max<MicroSecs>(
          1, static_cast<MicroSecs>(CapDuration(static_cast<double>(cfg_.init_mean) * f)));
    }
    return cfg_.init_mean;
  }

  MicroSecs SampleExec(const HopSpec& spec, Rng& rng) const {
    if (!(spec.exec_cv > 0.0)) {
      return std::max<MicroSecs>(1, spec.exec_mean);
    }
    const double mean = static_cast<double>(spec.exec_mean);
    const double sigma2 = std::log1p(spec.exec_cv * spec.exec_cv);
    const double mu = std::log(mean) - sigma2 / 2.0;
    const double x = rng.LogNormal(mu, std::sqrt(sigma2));
    return std::max<MicroSecs>(1, static_cast<MicroSecs>(CapDuration(x)));
  }

  // Settles `fs`'s pool at `t` by the warm-pool rule
  // (src/engine/warm_pool.h) and takes the sandbox it picks out of the pool
  // until the attempt row closes. Returns true when one was taken.
  bool AcquireWarm(FunctionState& fs, MicroSecs t) {
    ExpireIdle(fs.warm, t, cfg_.keepalive, [](const Sandbox&) {});
    const size_t warm = LatestIdle(fs.warm, t);
    if (warm == kNoWarm) {
      return false;
    }
    fs.warm.erase(fs.warm.begin() + static_cast<ptrdiff_t>(warm));
    return true;
  }

  void NoteBreaker(int d, int h) {
    FunctionState& fs = Function(d, h);
    const bool open = fs.breaker.open();
    if (open != fs.breaker_open_last) {
      fs.breaker_open_last = open;
      res_.breaker_transitions.push_back({now_, d, h, open});
    }
  }

  int64_t NewRow(int64_t wf, int hop, Outcome outcome, bool hedge, bool redrive) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    if (hs.total_attempts >= kMaxAttemptsPerHop) {
      throw IntegrityViolation("workflow.attempt_stream_overflow", now_, seed_,
                               "wf " + std::to_string(wf) + " hop " + std::to_string(hop),
                               "per-hop attempt ordinal exceeded kMaxAttemptsPerHop");
    }
    HopAttempt row;
    row.wf = wf;
    row.dag = ws.dag;
    row.hop = hop;
    row.attempt.req_idx = hop;
    row.attempt.attempt = ++hs.total_attempts;  // 1-based ordinal.
    row.attempt.outcome = outcome;
    row.attempt.dispatched = now_;
    row.attempt.end = now_;
    row.hedge = hedge;
    row.provider_redrive = redrive;
    res_.attempts.push_back(row);
    extras_.emplace_back();
    return static_cast<int64_t>(res_.attempts.size()) - 1;
  }

  // A span on workflow `wf`'s track, attributed to `hop` (-1: the whole
  // instance).
  static Span WorkflowSpan(SpanKind kind, int64_t wf, int hop, MicroSecs start,
                           MicroSecs duration) {
    Span s;
    s.kind = kind;
    s.group = kTrackGroupWorkflow;
    s.track = wf;
    s.start = start;
    s.duration = duration;
    s.req_idx = hop;
    return s;
  }

  void EmitAttemptSpans(int64_t idx) {
    if (cfg_.trace == nullptr) {
      return;
    }
    const HopAttempt& row = res_.attempts[static_cast<size_t>(idx)];
    if (row.attempt.cold_start && row.attempt.init_duration > 0) {
      Span s = WorkflowSpan(SpanKind::kInit, row.wf, row.hop, row.attempt.dispatched,
                            row.attempt.init_duration);
      s.attempt = row.attempt.attempt;
      s.ref = idx;
      s.cold = true;
      cfg_.trace->Record(s);
    }
    Span s = WorkflowSpan(SpanKind::kExec, row.wf, row.hop,
                          row.attempt.dispatched + row.attempt.init_duration,
                          row.attempt.exec_duration);
    s.attempt = row.attempt.attempt;
    s.ref = idx;
    s.status = OutcomeName(row.attempt.outcome);
    s.terminal = true;
    s.billed_micros = row.attempt.exec_duration;
    s.billed_usd = row.usd;
    cfg_.trace->Record(s);
  }

  // Maps the hop's engine zone into the attached model's zone space.
  int NetZone(const HopSpec& spec) const {
    if (cfg_.network == nullptr) {
      return NetworkModel::kInternet;
    }
    return cfg_.network->ZoneOf(static_cast<int64_t>(ZoneOf(spec)));
  }

  // Meters the payload in event-processing order (MeterPayload emits its
  // kTransfer span and series entry) and books the marginal charge to the
  // instance and the run. kTransfer spans are non-terminal, so the billed-USD
  // and transfer-USD columns stay disjoint and each reconciles
  // independently. Waste attribution is disjoint, first match wins: a failed
  // sink's egress wastes the whole charge; a rerouted-but-successful
  // transfer wastes the detour surcharge. Returns the transfer time.
  MicroSecs MeterTransfer(int src_zone, int dst_zone, int64_t bytes, int64_t wf,
                          int hop, bool failed_egress) {
    if (cfg_.network == nullptr || bytes <= 0) {
      return 0;
    }
    const TransferCharge c =
        MeterPayload(*cfg_.network, src_zone, dst_zone, bytes, now_,
                     WorkflowSpan(SpanKind::kTransfer, wf, hop, now_, 0), &net_totals_,
                     cfg_.trace, cfg_.timeseries);
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    ws.usd_network += c.usd;
    ws.usd_net_detour += c.detour_usd;
    res_.usd_network += c.usd;
    res_.usd_network_detour += c.detour_usd;
    if (cfg_.timeseries != nullptr) {
      if (failed_egress) {
        cfg_.timeseries->RecordWaste(now_ + c.time, WasteKind::kFailedEgress, c.usd);
      } else if (c.detour_usd > 0.0) {
        cfg_.timeseries->RecordWaste(now_ + c.time, WasteKind::kCrossZoneDetour,
                                     c.detour_usd);
      }
    }
    return c.time;
  }

  // Bills the row, books its USD, returns the sandbox, emits spans. Every
  // attempt row passes through here exactly once.
  void CloseRow(int64_t idx) {
    AttemptExtra& ex = extras_[static_cast<size_t>(idx)];
    if (ex.closed) {
      throw IntegrityViolation("workflow.double_close", now_, seed_,
                               "attempt " + std::to_string(idx), "row closed twice");
    }
    ex.closed = true;
    HopAttempt& row = res_.attempts[static_cast<size_t>(idx)];
    WfState& ws = wfs_[static_cast<size_t>(row.wf)];
    const HopSpec& spec = Spec(row.dag, row.hop);
    if (row.platform_dispatched) {
      row.usd =
          ComputeInvoice(billing_, BillableRecord(row.attempt, spec.vcpus, spec.mem_mb))
              .total;
    }
    ws.usd_attempts += row.usd;
    res_.usd_attempts += row.usd;
    if (row.attempt.outcome == Outcome::kHedgeLoser) {
      res_.usd_hedge_losers += row.usd;
    }
    HopState& hs = ws.hops[static_cast<size_t>(row.hop)];
    if (hs.straggler) {
      row.straggler = true;
      ++res_.counters.stragglers;
      res_.usd_stragglers += row.usd;
    }
    if (row.platform_dispatched && ex.survives) {
      Function(row.dag, row.hop).warm.push_back({row.attempt.end});
    }
    if (cfg_.timeseries != nullptr) {
      // Same value and timestamp the terminal span carries (start + duration),
      // in the same per-row order — keeps ReconcileBilledUsd bitwise.
      const MicroSecs span_end = row.attempt.dispatched + row.attempt.init_duration +
                                 row.attempt.exec_duration;
      cfg_.timeseries->RecordBilled(span_end, row.usd);
      if (row.attempt.exec_duration > 0) {
        cfg_.timeseries->RecordExecution(span_end - row.attempt.exec_duration, span_end);
      }
      if (row.usd > 0.0) {
        // Disjoint categories, first match wins (see WasteKind).
        if (row.attempt.outcome == Outcome::kHedgeLoser) {
          cfg_.timeseries->RecordWaste(span_end, WasteKind::kHedgeLoser, row.usd);
        } else if (row.straggler) {
          cfg_.timeseries->RecordWaste(span_end, WasteKind::kStraggler, row.usd);
        } else if (row.attempt.outcome == Outcome::kDeadLettered) {
          cfg_.timeseries->RecordWaste(span_end, WasteKind::kDeadLetter, row.usd);
        } else if (row.attempt.outcome != Outcome::kOk) {
          cfg_.timeseries->RecordWaste(span_end, WasteKind::kFailedAttempt, row.usd);
        }
      }
    }
    EmitAttemptSpans(idx);
  }

  // Closes a dispatched row that ended, drops it from its hop's open set
  // and feeds its outcome to the client breaker, which guards sync hops
  // only.
  void SettleRow(int64_t wf, int hop, int64_t idx, bool ok) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    std::vector<int64_t>& open = ws.hops[static_cast<size_t>(hop)].open;
    CloseRow(idx);
    open.erase(std::remove(open.begin(), open.end(), idx), open.end());
    FunctionState& fs = Function(ws.dag, hop);
    if (!Spec(ws.dag, hop).async && fs.breaker.enabled()) {
      if (ok) {
        fs.breaker.RecordSuccess();
      } else {
        fs.breaker.RecordFailure(now_);
      }
      NoteBreaker(ws.dag, hop);
    }
  }

  // Truncates an in-flight row at `t` (hedge cancel or outage kill).
  static void TruncateRow(HopAttempt& row, MicroSecs t) {
    row.attempt.end = t;
    const MicroSecs since_dispatch = t - row.attempt.dispatched;
    if (since_dispatch <= row.attempt.init_duration) {
      row.attempt.init_duration = since_dispatch;
      row.attempt.exec_duration = 0;
      row.attempt.start_exec = 0;
    } else {
      row.attempt.exec_duration = since_dispatch - row.attempt.init_duration;
    }
  }

  void OnArrival(int64_t wf) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    ws.arrival = now_;
    ws.dag = static_cast<int>(wf % static_cast<int64_t>(cfg_.dags.size()));
    const WorkflowDag& dag = Dag(ws.dag);
    ws.hops.resize(dag.hops.size());
    ws.pending_sinks = static_cast<int>(dag.Sinks().size());
    ++res_.counters.workflows_started;
    if (cfg_.timeseries != nullptr) {
      cfg_.timeseries->RecordArrival(now_);
    }
    for (const int src : dag.Sources()) {
      HopState& hs = ws.hops[static_cast<size_t>(src)];
      hs.dispatched = true;
      // Client ingress: the input payload travels internet -> source zone
      // before the source can start.
      const MicroSecs xfer =
          MeterTransfer(NetworkModel::kInternet, NetZone(dag.hops[static_cast<size_t>(src)]),
                        dag.input_bytes, wf, src, /*failed_egress=*/false);
      if (xfer > 0) {
        hs.data_ready = now_ + xfer;
        Schedule({now_ + xfer, 0, EvKind::kDispatch, wf, src, -1, kFlavorClient});
      } else {
        DispatchAttempt(wf, src, /*hedge=*/false, /*redrive=*/false);
      }
    }
  }

  void DispatchAttempt(int64_t wf, int hop, bool hedge, bool redrive) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    const HopSpec& spec = Spec(ws.dag, hop);
    if (!hedge && !redrive && !spec.async) {
      ++hs.client_attempts;
    }

    // Deadline fast-fail: with a propagated budget, a hop that cannot fit is
    // never handed to the platform.
    const DeadlineBudgetPolicy& dl = cfg_.policy.deadline;
    if (!hedge && dl.enabled() && dl.propagate && now_ >= ws.arrival + dl.deadline) {
      FailUndispatched(wf, hop, Outcome::kTimeout, redrive);
      return;
    }

    FunctionState& fs = Function(ws.dag, hop);

    // Circuit breaker guards sync client dispatches (hedges ride on an
    // admitted primary; redrives are platform-side).
    if (!spec.async && !hedge && fs.breaker.enabled()) {
      const bool allowed = fs.breaker.AllowDispatch(now_);
      NoteBreaker(ws.dag, hop);
      if (!allowed) {
        FailUndispatched(wf, hop, Outcome::kCircuitOpen, redrive);
        return;
      }
    }

    const int ordinal = hs.total_attempts;
    const int64_t idx = NewRow(wf, hop, Outcome::kOk, hedge, redrive);
    HopAttempt& row = res_.attempts[static_cast<size_t>(idx)];
    AttemptExtra& ex = extras_[static_cast<size_t>(idx)];
    row.platform_dispatched = true;
    ++res_.counters.dispatched_attempts;
    ++ws.transitions;
    if (cfg_.network != nullptr) {
      // Storage ops the attempt performs (class A mutate / class B read),
      // flat-priced by the model's meter.
      const Usd ops = cfg_.network->MeterRequestOps();
      ws.usd_network += ops;
      res_.usd_network += ops;
    }

    Rng rng(AttemptSeed(wf, hop, ordinal));
    const int zone = ZoneOf(spec);
    ex.zone = zone;
    const bool outage_now = InOutage(zone, now_);

    bool cold = true;
    if (!outage_now && AcquireWarm(fs, now_)) {
      cold = false;
    }
    MicroSecs init = 0;
    if (cold) {
      init = SampleInit(rng);
      ++res_.counters.cold_starts;
    }
    if (cfg_.timeseries != nullptr) {
      cfg_.timeseries->RecordDispatch(now_, cold);
    }
    const bool init_fail =
        cold && (outage_now ||
                 (cfg_.init_failure_rate > 0.0 && rng.Bernoulli(cfg_.init_failure_rate)));

    const MicroSecs exec = SampleExec(spec, rng);
    const double p_fail = spec.failure_rate >= 0.0 ? spec.failure_rate : cfg_.failure_rate;
    const bool crash = !init_fail && p_fail > 0.0 && rng.Bernoulli(p_fail);
    MicroSecs run = exec;
    if (crash) {
      const double u = 1.0 - rng.NextDouble();  // (0, 1].
      run = std::max<MicroSecs>(1, static_cast<MicroSecs>(static_cast<double>(exec) * u));
    }
    // Pre-draw the client retry backoff so the failure path needs no RNG.
    ex.backoff = cfg_.policy.retry.BackoffDelay(hs.client_attempts, rng);

    Outcome outcome = Outcome::kOk;
    MicroSecs init_run = init;
    MicroSecs cut = run;
    if (init_fail) {
      outcome = Outcome::kInitFailure;
      cut = 0;
    } else {
      if (crash) {
        outcome = Outcome::kCrash;
      }
      // Per-hop platform timeout bounds the execution portion; the earliest
      // of {crash, timeout, natural end} wins.
      if (spec.timeout > 0 && cut >= spec.timeout) {
        cut = spec.timeout;
        outcome = Outcome::kTimeout;
      }
      // Propagated deadline budget bounds wall-clock from dispatch.
      if (dl.enabled() && dl.propagate) {
        const MicroSecs remaining = ws.arrival + dl.deadline - now_;
        if (init_run + cut > remaining) {
          outcome = Outcome::kTimeout;
          if (remaining <= init_run) {
            init_run = remaining;
            cut = 0;
          } else {
            cut = remaining - init_run;
          }
        }
      }
    }

    row.attempt.outcome = outcome;
    row.attempt.cold_start = cold;
    row.attempt.init_duration = init_run;
    row.attempt.exec_duration = cut;
    row.attempt.start_exec = cut > 0 ? now_ + init_run : 0;
    row.attempt.end = now_ + init_run + cut;
    // A sandbox survives a completed execution or a mid-execution timeout;
    // init failures, crashes, and aborts during init destroy it.
    ex.survives = outcome == Outcome::kOk ||
                  (outcome == Outcome::kTimeout && cut > 0 && init_run >= init);

    hs.open.push_back(idx);
    Schedule({row.attempt.end, 0, EvKind::kComplete, wf, hop, idx, kFlavorClient});
    if (!spec.async && !hedge && cfg_.policy.hedge.enabled() &&
        row.attempt.end > now_ + cfg_.policy.hedge.hedge_after) {
      Schedule({now_ + cfg_.policy.hedge.hedge_after, 0, EvKind::kHedgeFire, wf, hop, idx,
                kFlavorClient});
    }
  }

  // Closes every row that never reaches a sandbox: a deadline fast-fail
  // (kTimeout), a circuit-open fast-fail, or a hop whose quorum can no longer
  // be met (kUpstreamFailed). The zero-length row is unbilled by
  // construction. A circuit-open try falls to the client's retry.
  void FailUndispatched(int64_t wf, int hop, Outcome outcome, bool redrive) {
    HopState& hs = wfs_[static_cast<size_t>(wf)].hops[static_cast<size_t>(hop)];
    const int ordinal = hs.total_attempts;
    const int64_t idx = NewRow(wf, hop, outcome, /*hedge=*/false, redrive);
    HopAttempt& row = res_.attempts[static_cast<size_t>(idx)];
    row.fail_fast = outcome == Outcome::kTimeout;
    CloseRow(idx);
    if (outcome == Outcome::kCircuitOpen) {
      ++res_.counters.circuit_open;
      Rng rng(AttemptSeed(wf, hop, ordinal));
      FailClientAttempt(wf, hop, outcome, cfg_.policy.retry.BackoffDelay(hs.client_attempts, rng));
      return;
    }
    ++(outcome == Outcome::kTimeout ? res_.counters.fail_fast : res_.counters.upstream_skipped);
    ResolveHopFailure(wf, hop, outcome);
  }

  // Common continuation after a dispatched attempt failed (natural
  // completion or outage kill). The row must already be truncated to its
  // final shape but not yet closed.
  void OnAttemptFailed(int64_t wf, int hop, int64_t idx) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    const HopSpec& spec = Spec(ws.dag, hop);
    // A failed async delivery that has exhausted its redrives is dead-lettered
    // before the row is billed.
    const bool dead_letter = spec.async && !hs.straggler && !hs.resolved &&
                             hs.redrives >= cfg_.policy.redrive.max_redrives;
    if (dead_letter) {
      res_.attempts[static_cast<size_t>(idx)].attempt.outcome = Outcome::kDeadLettered;
    }
    SettleRow(wf, hop, idx, /*ok=*/false);
    const HopAttempt& row = res_.attempts[static_cast<size_t>(idx)];
    if (hs.resolved) {
      return;
    }
    if (hs.straggler) {
      // No further money is spent once the join has fired.
      if (hs.open.empty()) {
        ResolveHopFailure(wf, hop, row.attempt.outcome);
      }
      return;
    }
    if (dead_letter) {
      ++res_.counters.dead_letters;
      ++ws.dead_letters;
      ResolveHopFailure(wf, hop, Outcome::kDeadLettered);
      return;
    }
    if (spec.async) {
      ++hs.redrives;
      ++res_.counters.provider_redrives;
      Schedule({now_ + cfg_.policy.redrive.redrive_delay, 0, EvKind::kDispatch, wf, hop, -1,
                kFlavorRedrive});
      return;
    }
    if (!hs.open.empty()) {
      return;  // A hedge twin is still in flight; it may yet win.
    }
    FailClientAttempt(wf, hop, row.attempt.outcome, extras_[static_cast<size_t>(idx)].backoff);
  }

  // All sync attempts for this client try have failed: retry or give up.
  void FailClientAttempt(int64_t wf, int hop, Outcome last, MicroSecs backoff) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    if (!hs.straggler && hs.client_attempts < cfg_.policy.retry.max_attempts) {
      ++res_.counters.client_retries;
      if (cfg_.timeseries != nullptr) {
        cfg_.timeseries->RecordRetry(now_);
      }
      if (cfg_.trace != nullptr) {
        Span s = WorkflowSpan(SpanKind::kBackoff, wf, hop, now_, backoff);
        s.attempt = hs.client_attempts;
        cfg_.trace->Record(s);
      }
      Schedule({now_ + backoff, 0, EvKind::kDispatch, wf, hop, -1, kFlavorClient});
      return;
    }
    ResolveHopFailure(wf, hop,
                      cfg_.policy.retry.max_attempts > 1 ? Outcome::kRetriesExhausted : last);
  }

  void OnComplete(int64_t wf, int hop, int64_t idx) {
    if (extras_[static_cast<size_t>(idx)].closed) {
      return;  // Truncated earlier (hedge cancel / outage kill).
    }
    HopAttempt& row = res_.attempts[static_cast<size_t>(idx)];
    if (row.attempt.outcome == Outcome::kHedgeLoser) {
      // Lost the race but finished before the cancel landed: bills in full,
      // no further state-machine effect (the hop already resolved).
      CloseRow(idx);
      return;
    }
    if (row.attempt.outcome != Outcome::kOk) {
      OnAttemptFailed(wf, hop, idx);
      return;
    }
    SettleRow(wf, hop, idx, /*ok=*/true);
    if (wfs_[static_cast<size_t>(wf)].hops[static_cast<size_t>(hop)].resolved) {
      return;
    }
    if (row.hedge) {
      ++res_.counters.hedge_wins;
    }
    ResolveHopSuccess(wf, hop);
  }

  void ResolveHopSuccess(int64_t wf, int hop) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    const WorkflowDag& dag = Dag(ws.dag);
    hs.resolved = true;
    hs.success = true;
    // Cancel the losing side of a hedge race.
    if (!hs.open.empty()) {
      std::vector<int64_t> open = hs.open;
      hs.open.clear();
      std::sort(open.begin(), open.end());
      const MicroSecs cancel_t = now_ + cfg_.policy.hedge.cancel_latency;
      for (const int64_t o : open) {
        HopAttempt& loser = res_.attempts[static_cast<size_t>(o)];
        loser.attempt.outcome = Outcome::kHedgeLoser;
        ++res_.counters.hedge_losers;
        if (loser.attempt.end > cancel_t) {
          TruncateRow(loser, cancel_t);
          extras_[static_cast<size_t>(o)].survives = false;
          CloseRow(o);
        }
        // else: it finishes first and bills in full at its own completion.
      }
    }
    if (dag.children[static_cast<size_t>(hop)].empty()) {
      SinkResolved(wf, hop, /*sink_success=*/true);
    }
    for (const int c : dag.children[static_cast<size_t>(hop)]) {
      HopState& cs = ws.hops[static_cast<size_t>(c)];
      if (cfg_.network != nullptr) {
        // Ship the edge payload producer zone -> consumer zone now; the
        // consumer's first dispatch waits for every inbound payload.
        const MicroSecs xfer =
            MeterTransfer(NetZone(Spec(ws.dag, hop)), NetZone(Spec(ws.dag, c)),
                          dag.EdgeBytes(hop, c), wf, c, /*failed_egress=*/false);
        cs.data_ready = std::max(cs.data_ready, now_ + xfer);
      }
      ++cs.succeeded_parents;
      ++cs.terminal_parents;
      CheckReadiness(wf, c);
    }
  }

  void ResolveHopFailure(int64_t wf, int hop, Outcome oc) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    const WorkflowDag& dag = Dag(ws.dag);
    const bool was_straggler = hs.straggler;
    hs.resolved = true;
    hs.success = false;
    if (!was_straggler && ws.root_cause == Outcome::kOk) {
      ws.root_cause = oc;
    }
    if (dag.children[static_cast<size_t>(hop)].empty()) {
      SinkResolved(wf, hop, /*sink_success=*/false);
    }
    for (const int c : dag.children[static_cast<size_t>(hop)]) {
      ++ws.hops[static_cast<size_t>(c)].terminal_parents;
      CheckReadiness(wf, c);
    }
  }

  void CheckReadiness(int64_t wf, int c) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& cs = ws.hops[static_cast<size_t>(c)];
    if (cs.dispatched || cs.resolved) {
      return;
    }
    const WorkflowDag& dag = Dag(ws.dag);
    const HopSpec& cspec = Spec(ws.dag, c);
    const int n = static_cast<int>(dag.parents[static_cast<size_t>(c)].size());
    const int req = cspec.quorum > 0 ? cspec.quorum : n;
    if (cs.succeeded_parents >= req) {
      cs.dispatched = true;
      if (cs.succeeded_parents < n) {
        // Quorum fired before every parent finished: the workflow proceeds
        // degraded; parents still running become billed stragglers.
        ws.degraded = true;
        for (const int p : dag.parents[static_cast<size_t>(c)]) {
          HopState& ps = ws.hops[static_cast<size_t>(p)];
          if (ps.dispatched && !ps.resolved && !ps.straggler) {
            ps.straggler = true;
          }
        }
      }
      if (cs.data_ready > now_) {
        // Inbound edge payloads are still in flight: start when they land.
        Schedule({cs.data_ready, 0, EvKind::kDispatch, wf, c, -1, kFlavorClient});
      } else {
        DispatchAttempt(wf, c, /*hedge=*/false, /*redrive=*/false);
      }
      return;
    }
    if (cs.succeeded_parents + (n - cs.terminal_parents) < req) {
      // The quorum can no longer be met: skip the hop.
      cs.dispatched = true;
      FailUndispatched(wf, c, Outcome::kUpstreamFailed, /*redrive=*/false);
    }
  }

  void SinkResolved(int64_t wf, int hop, bool sink_success) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    if (!sink_success) {
      ++ws.failed_sinks;
    }
    if (cfg_.network != nullptr) {
      // Sink egress: the client sees the result (or an error body) only
      // after it crosses the topology, so the instance's end extends to the
      // latest landing.
      const int64_t bytes = sink_success
                                ? Dag(ws.dag).output_bytes
                                : cfg_.network->config().error_response_bytes;
      const MicroSecs xfer = MeterTransfer(NetZone(Spec(ws.dag, hop)), NetworkModel::kInternet,
                                           bytes, wf, hop, /*failed_egress=*/!sink_success);
      ws.net_end = std::max(ws.net_end, now_ + xfer);
    }
    if (--ws.pending_sinks > 0) {
      return;
    }
    ws.done = true;
    ws.end = std::max(now_, ws.net_end);
    const DeadlineBudgetPolicy& dl = cfg_.policy.deadline;
    if (ws.failed_sinks > 0) {
      ws.outcome =
          ws.root_cause != Outcome::kOk ? ws.root_cause : Outcome::kUpstreamFailed;
    } else if (dl.enabled() && ws.end > ws.arrival + dl.deadline) {
      ws.outcome = Outcome::kTimeout;  // Completed, but past the deadline.
    } else {
      ws.outcome = Outcome::kOk;
    }
    if (cfg_.timeseries != nullptr) {
      cfg_.timeseries->RecordCompletion(ws.end, ws.outcome == Outcome::kOk,
                                        ws.end - ws.arrival);
    }
  }

  void OnHedgeFire(int64_t wf, int hop, int64_t idx) {
    if (extras_[static_cast<size_t>(idx)].closed) {
      return;  // The primary already resolved.
    }
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    if (hs.resolved || ws.done) {
      return;
    }
    // One live hedge per primary: fire only when the triggering attempt is
    // the lone open one.
    if (hs.open.size() != 1 || hs.open.front() != idx) {
      return;
    }
    ++res_.counters.hedges;
    DispatchAttempt(wf, hop, /*hedge=*/true, /*redrive=*/false);
  }

  void OnDispatchEvent(int64_t wf, int hop, int flavor) {
    WfState& ws = wfs_[static_cast<size_t>(wf)];
    HopState& hs = ws.hops[static_cast<size_t>(hop)];
    if (hs.resolved) {
      return;
    }
    if (hs.straggler) {
      // A retry/redrive scheduled before the join fired: spend nothing more.
      ResolveHopFailure(wf, hop, Outcome::kRetriesExhausted);
      return;
    }
    DispatchAttempt(wf, hop, /*hedge=*/false, /*redrive=*/flavor == kFlavorRedrive);
  }

  void OnOutageStart(int64_t outage_idx) {
    const int zone = outages_[static_cast<size_t>(outage_idx)].zone;
    // Warm capacity in the zone dies.
    for (size_t d = 0; d < functions_.size(); ++d) {
      for (size_t h = 0; h < functions_[d].size(); ++h) {
        if (ZoneOf(Dag(static_cast<int>(d)).hops[h]) == zone) {
          functions_[d][h].warm.clear();
        }
      }
    }
    // In-flight attempts in the zone crash at the outage boundary, billed to
    // the crash point.
    const int64_t n = static_cast<int64_t>(res_.attempts.size());
    for (int64_t i = FirstOpenRow(); i < n; ++i) {
      AttemptExtra& ex = extras_[static_cast<size_t>(i)];
      if (ex.closed || ex.zone != zone) {
        continue;
      }
      HopAttempt& row = res_.attempts[static_cast<size_t>(i)];
      if (!row.platform_dispatched || row.attempt.end < now_) {
        continue;
      }
      row.outage_killed = true;
      ++res_.counters.outage_killed;
      ex.survives = false;
      TruncateRow(row, now_);
      if (row.attempt.outcome == Outcome::kHedgeLoser) {
        CloseRow(i);  // Already lost its race: the meter just stops at the outage.
      } else {
        row.attempt.outcome = Outcome::kCrash;
        OnAttemptFailed(row.wf, row.hop, i);
      }
    }
  }

  // Low-water mark of open rows: every row below it is closed. Advanced
  // lazily, so each row is stepped over once per run.
  int64_t FirstOpenRow() {
    const int64_t n = static_cast<int64_t>(extras_.size());
    while (first_open_ < n && extras_[static_cast<size_t>(first_open_)].closed) {
      ++first_open_;
    }
    return first_open_;
  }

  const WorkflowSimConfig& cfg_;
  const BillingModel& billing_;
  uint64_t seed_;

  // Arrivals stream from the queue's input; the heap holds every other
  // scheduled event.
  StreamedEventQueue<Event, WorkflowArrivals> events_;
  // cfg_.outages with each zone taken modulo the zone count, like hop zones.
  std::vector<ZonalOutageSpec> outages_;
  int64_t next_seq_ = 0;
  MicroSecs now_ = 0;
  int64_t events_processed_ = 0;
  int64_t first_open_ = 0;

  std::vector<std::vector<FunctionState>> functions_;  // [dag][hop].
  std::vector<WfState> wfs_;
  AppendLog<AttemptExtra> extras_;
  NetworkTotals net_totals_;  // Copied into the result's transfer counts at the end.
  WorkflowSimResult res_;
};

WorkflowSimResult Engine::Run() {
  // Shared per-function state.
  functions_.resize(cfg_.dags.size());
  for (size_t d = 0; d < cfg_.dags.size(); ++d) {
    functions_[d].resize(cfg_.dags[d].hops.size());
    for (size_t h = 0; h < functions_[d].size(); ++h) {
      functions_[d][h].breaker = CircuitBreaker(cfg_.policy.retry.breaker_threshold,
                                                cfg_.policy.retry.breaker_cooldown);
    }
  }
  wfs_.resize(static_cast<size_t>(cfg_.workflows));

  for (size_t i = 0; i < cfg_.outages.size(); ++i) {
    Schedule({cfg_.outages[i].start, 0, EvKind::kOutageStart, -1, -1,
              static_cast<int64_t>(i), kFlavorClient});
  }
  // Seqs outages .. outages + workflows - 1 belong to the streamed arrivals.
  next_seq_ += cfg_.workflows;

  Auditor* aud = cfg_.auditor;
  while (!events_.empty()) {
    const Event ev = events_.Pop();
    if (aud != nullptr && aud->basic()) {
      aud->CheckLazy(
          ev.time >= now_, "workflow.monotone_event_time", ev.time, seed_,
          [&] { return "event seq " + std::to_string(ev.seq); },
          [&] { return "event time regressed below " + std::to_string(now_); });
    }
    now_ = ev.time;
    ++events_processed_;
    if (aud != nullptr && aud->ScanDue(events_processed_)) {
      aud->NoteScan();
      // Rows below the low-water mark are closed and pass trivially.
      for (size_t i = static_cast<size_t>(FirstOpenRow()); i < extras_.size(); ++i) {
        const HopAttempt& row = res_.attempts[i];
        aud->CheckLazy(
            extras_[i].closed || row.attempt.end >= now_, "workflow.open_attempt_in_past",
            now_, seed_, [&] { return "attempt " + std::to_string(i); },
            [&] { return "open row ends at " + std::to_string(row.attempt.end); });
      }
    }
    switch (ev.kind) {
      case EvKind::kOutageStart:
        OnOutageStart(ev.idx);
        break;
      case EvKind::kArrival:
        OnArrival(ev.wf);
        break;
      case EvKind::kDispatch:
        OnDispatchEvent(ev.wf, ev.hop, ev.flavor);
        break;
      case EvKind::kComplete:
        OnComplete(ev.wf, ev.hop, ev.idx);
        break;
      case EvKind::kHedgeFire:
        OnHedgeFire(ev.wf, ev.hop, ev.idx);
        break;
    }
    res_.makespan = std::max(res_.makespan, now_);
  }

  // Finalize: per-workflow rows, fee line items, waste decomposition.
  const Usd fee_t = cfg_.pricing.per_state_transition;
  const Usd fee_dlq = cfg_.pricing.dlq_write_fee + cfg_.pricing.dlq_read_fee;
  res_.workflows.reserve(wfs_.size());
  for (size_t i = 0; i < wfs_.size(); ++i) {
    WfState& ws = wfs_[i];
    if (aud != nullptr && aud->basic()) {
      aud->CheckLazy(
          ws.done, "workflow.unterminated", now_, seed_,
          [&] { return "wf " + std::to_string(i); },
          [&] { return std::string("event queue drained with unresolved sinks"); });
    }
    WorkflowRow row;
    row.wf = static_cast<int64_t>(i);
    row.dag = ws.dag;
    row.outcome = ws.outcome;
    row.degraded = ws.degraded;
    row.arrival = ws.arrival;
    row.end = ws.end;
    row.usd = ws.usd_attempts + fee_t * static_cast<double>(ws.transitions) +
              fee_dlq * static_cast<double>(ws.dead_letters) + ws.usd_network;
    row.usd_network = ws.usd_network;
    res_.usd_transitions += fee_t * static_cast<double>(ws.transitions);
    res_.usd_dlq += fee_dlq * static_cast<double>(ws.dead_letters);
    if (ws.outcome == Outcome::kOk) {
      ++res_.counters.workflows_succeeded;
      if (ws.degraded) {
        ++res_.counters.degraded_successes;
      }
      // A successful instance's network spend is useful, except the part an
      // outage detour forced on it.
      res_.usd_useful += ws.usd_network - ws.usd_net_detour;
    } else {
      ++res_.counters.workflows_failed;
    }
    res_.workflows.push_back(row);
    if (cfg_.trace != nullptr) {
      Span s = WorkflowSpan(SpanKind::kWorkflow, static_cast<int64_t>(i), -1, ws.arrival,
                            ws.end - ws.arrival);
      s.status = OutcomeName(ws.outcome);
      s.terminal = true;
      s.billed_usd = row.usd;
      cfg_.trace->Record(s);
    }
  }
  res_.usd_total =
      res_.usd_attempts + res_.usd_transitions + res_.usd_dlq + res_.usd_network;
  for (const HopAttempt& att : res_.attempts) {
    if (res_.workflows[static_cast<size_t>(att.wf)].outcome == Outcome::kOk &&
        att.attempt.outcome == Outcome::kOk && !att.straggler) {
      res_.usd_useful += att.usd + fee_t;
    }
  }
  res_.usd_wasted = res_.usd_total - res_.usd_useful;
  res_.net_transfers = net_totals_.transfers;
  res_.net_bytes = net_totals_.bytes;
  for (const auto& dag_fns : functions_) {
    for (const FunctionState& fs : dag_fns) {
      res_.counters.breaker_trips += fs.breaker.trips();
    }
  }
  return std::move(res_);
}

}  // namespace

WorkflowSimResult SimulateWorkflows(const WorkflowSimConfig& config,
                                    const BillingModel& billing, uint64_t seed) {
  ThrowIfInvalid("WorkflowSimConfig", config.Validate());
  Engine engine(config, billing, seed);
  return engine.Run();
}

}  // namespace faascost
