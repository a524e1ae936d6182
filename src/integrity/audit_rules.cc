#include "src/integrity/audit_rules.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/json_writer.h"

namespace faascost {

namespace {

// Relative tolerance for USD reconciliation. The reference and the audited
// totals are computed by different call sites, so exact bit-equality is only
// guaranteed when summation order matches; a run artifact may also round on
// serialization. One part per billion is far below any real billing delta.
bool UsdClose(Usd a, Usd b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= 1e-9 * scale;
}

// USD amounts in violation details print shortest round trip, so a
// sub-micro-dollar discrepancy shows as two different numbers and each
// parses back to the exact double the check compared.
std::string UsdPair(Usd got, Usd want) {
  return "got=" + JsonWriter::FormatDouble(got) +
         " want=" + JsonWriter::FormatDouble(want);
}

}  // namespace

Usd RecomputePlatformTotalUsd(const PlatformSimResult& result,
                              const PlatformSimConfig& config,
                              const BillingModel& billing) {
  Usd total = 0.0;
  for (const AttemptOutcome& att : result.attempts) {
    total +=
        ComputeInvoice(billing, BillableRecord(att, config.vcpus, config.mem_mb)).total;
  }
  return total;
}

void AuditPlatformRun(const PlatformSimResult& result, const PlatformSimConfig& config,
                      uint64_t seed, Auditor& auditor, const BillingModel* billing,
                      Usd expected_total_usd) {
  const MicroSecs end = result.timeline.empty() ? 0 : result.timeline.back().time;

  // The failure taxonomy holds (AttemptFailures::Partitioned), checked
  // clause by clause: the causes partition the failed-attempt count, and
  // queue timeouts are a subset of timeouts.
  const auto taxonomy = [&] { return result.PartitionText(); };
  auditor.CheckLazy(result.CauseSum() == result.failed_attempts, "platform.failure_taxonomy",
                    end, seed, [] { return "counters"; }, taxonomy);
  auditor.CheckLazy(result.queue_timeout_attempts <= result.timeout_attempts,
                    "platform.failure_taxonomy", end, seed, [] { return "counters"; },
                    taxonomy);

  // Attempt conservation: every attempt beyond the first per request is a
  // retry.
  const int64_t extra = static_cast<int64_t>(result.attempts.size()) -
                        static_cast<int64_t>(result.requests.size());
  auditor.CheckLazy(extra == result.retries, "platform.attempt_conservation", end, seed,
                    [] { return "attempts"; }, [&] {
                      return "attempts=" + std::to_string(result.attempts.size()) +
                             " requests=" + std::to_string(result.requests.size()) +
                             " retries=" + std::to_string(result.retries);
                    });

  // Request conservation: every request reached a terminal outcome, and the
  // derived aggregates match a recount.
  int64_t ok = 0;
  for (size_t i = 0; i < result.requests.size(); ++i) {
    const RequestOutcome& r = result.requests[i];
    const auto entity = [&] { return "request " + std::to_string(i); };
    auditor.CheckLazy(r.attempts >= 1, "platform.request_conservation", end, seed,
                      entity, [&] {
                        return "terminated with attempts=" + std::to_string(r.attempts);
                      });
    auditor.CheckLazy(
        r.completion >= r.arrival && r.e2e_latency == r.completion - r.arrival,
        "platform.request_conservation", end, seed, entity, [&] {
          return "arrival=" + std::to_string(r.arrival) +
                 " completion=" + std::to_string(r.completion) +
                 " e2e=" + std::to_string(r.e2e_latency);
        });
    if (r.outcome == Outcome::kOk) {
      ++ok;
    }
  }
  auditor.CheckLazy(ok == result.successes, "platform.request_conservation", end, seed,
                    [] { return "requests"; }, [&] {
                      return "recounted successes=" + std::to_string(ok) +
                             " recorded=" + std::to_string(result.successes);
                    });
  int64_t cold = 0;
  for (const AttemptOutcome& att : result.attempts) {
    if (att.cold_start) {
      ++cold;
    }
  }
  auditor.CheckLazy(cold == result.cold_starts, "platform.request_conservation", end,
                    seed, [] { return "attempts"; }, [&] {
                      return "recounted cold starts=" + std::to_string(cold) +
                             " recorded=" + std::to_string(result.cold_starts);
                    });

  // Billed-usec conservation: in the single-concurrency model a sandbox is
  // busy exactly while one attempt executes, so total sandbox busy time must
  // equal total attempt execution time. With concurrent execution the busy
  // wall-clock is a union of overlapping windows, so it can only be smaller.
  MicroSecs busy = 0;
  for (const SandboxAccounting& s : result.sandboxes) {
    const auto entity = [&] { return "sandbox " + std::to_string(s.sandbox_id); };
    auditor.CheckLazy(s.busy_time >= 0 && s.idle_time >= 0 && s.init_time >= 0,
                      "platform.sandbox_time_accounting", end, seed, entity, [&] {
                        return "init=" + std::to_string(s.init_time) +
                               " busy=" + std::to_string(s.busy_time) +
                               " idle=" + std::to_string(s.idle_time);
                      });
    auditor.CheckLazy(
        s.init_time + s.busy_time + s.idle_time <= s.destroyed_at - s.created_at,
        "platform.sandbox_time_accounting", end, seed, entity, [&] {
          return "accounted=" + std::to_string(s.init_time + s.busy_time + s.idle_time) +
                 " lifetime=" + std::to_string(s.destroyed_at - s.created_at);
        });
    busy += s.busy_time;
  }
  MicroSecs exec = 0;
  for (const AttemptOutcome& att : result.attempts) {
    auditor.CheckLazy(
        att.exec_duration >= 0, "platform.billed_time_conservation", end, seed,
        [&] { return "attempt of request " + std::to_string(att.req_idx); },
        [&] { return "exec_duration=" + std::to_string(att.exec_duration); });
    exec += att.exec_duration;
  }
  const bool multi = config.concurrency == ConcurrencyModel::kMultiConcurrency;
  auditor.CheckLazy(multi ? busy <= exec : busy == exec,
                    "platform.billed_time_conservation", end, seed,
                    [] { return "sandboxes"; }, [&] {
                      return "sandbox busy=" + std::to_string(busy) +
                             " attempt exec=" + std::to_string(exec) +
                             (multi ? " (concurrent: busy <= exec)" : "");
                    });

  // Monotone timeline.
  for (size_t i = 1; i < result.timeline.size(); ++i) {
    auditor.CheckLazy(result.timeline[i].time > result.timeline[i - 1].time,
                      "platform.monotone_timeline", end, seed,
                      [&] { return "sample " + std::to_string(i); }, [&] {
                        return std::to_string(result.timeline[i].time) + " after " +
                               std::to_string(result.timeline[i - 1].time);
                      });
  }

  // USD reconciliation against the independent billing recomputation.
  if (billing != nullptr) {
    const Usd recomputed = RecomputePlatformTotalUsd(result, config, *billing);
    auditor.CheckLazy(UsdClose(expected_total_usd, recomputed),
                      "platform.usd_reconciliation", end, seed, [] { return "billing"; },
                      [&] { return UsdPair(expected_total_usd, recomputed); });
  }
}

void AuditFleetRun(const FleetResult& result, const FleetSimConfig& config,
                   Auditor& auditor) {
  const uint64_t seed = config.fault_seed;
  MicroSecs end = 0;
  for (const SandboxSpan& span : result.spans) {
    end = std::max(end, span.destroyed_at);
  }

  // The failure taxonomy holds (AttemptFailures::Partitioned).
  auditor.CheckLazy(result.Partitioned(), "fleet.failure_taxonomy", end, seed,
                    [] { return "counters"; }, [&] { return result.PartitionText(); });

  // Attempt and request conservation.
  auditor.CheckLazy(result.attempts == result.requests + result.retries,
                    "fleet.attempt_conservation", end, seed, [] { return "counters"; },
                    [&] {
                      return "attempts=" + std::to_string(result.attempts) +
                             " requests=" + std::to_string(result.requests) +
                             " retries=" + std::to_string(result.retries);
                    });
  auditor.CheckLazy(result.successes + result.retries_exhausted == result.requests,
                    "fleet.request_conservation", end, seed, [] { return "counters"; },
                    [&] {
                      return "successes=" + std::to_string(result.successes) +
                             " exhausted=" + std::to_string(result.retries_exhausted) +
                             " requests=" + std::to_string(result.requests);
                    });
  auditor.CheckLazy(static_cast<int64_t>(result.e2e_latency.size()) == result.requests,
                    "fleet.request_conservation", end, seed,
                    [] { return "e2e_latency"; }, [&] {
                      return std::to_string(result.e2e_latency.size()) +
                             " entries for " + std::to_string(result.requests) +
                             " requests";
                    });
  auditor.CheckLazy(result.sandboxes == static_cast<int64_t>(result.spans.size()) &&
                        result.cold_starts == result.sandboxes,
                    "fleet.capacity_accounting", end, seed, [] { return "spans"; }, [&] {
                      return "sandboxes=" + std::to_string(result.sandboxes) +
                             " spans=" + std::to_string(result.spans.size()) +
                             " cold_starts=" + std::to_string(result.cold_starts);
                    });

  // Per-span time accounting: a sandbox's lifetime is exactly its busy time
  // (init + execution) plus its idle (keep-alive) time.
  double sandbox_seconds = 0.0, busy_seconds = 0.0, idle_seconds = 0.0;
  Usd hardware = 0.0;
  for (size_t i = 0; i < result.spans.size(); ++i) {
    const SandboxSpan& span = result.spans[i];
    const auto entity = [&] { return "span " + std::to_string(i); };
    auditor.CheckLazy(
        span.busy >= 0 && span.idle >= 0 && span.destroyed_at >= span.created_at,
        "fleet.span_time_accounting", end, seed, entity, [&] {
          return "busy=" + std::to_string(span.busy) + " idle=" +
                 std::to_string(span.idle) +
                 " lifetime=" + std::to_string(span.destroyed_at - span.created_at);
        });
    auditor.CheckLazy(span.busy + span.idle == span.destroyed_at - span.created_at,
                      "fleet.span_time_accounting", end, seed, entity, [&] {
                        return "busy+idle=" + std::to_string(span.busy + span.idle) +
                               " lifetime=" +
                               std::to_string(span.destroyed_at - span.created_at);
                      });
    sandbox_seconds += MicrosToSecs(span.destroyed_at - span.created_at);
    busy_seconds += MicrosToSecs(span.busy);
    idle_seconds += MicrosToSecs(span.idle);
    const Usd rate = config.hardware_per_vcpu_second * span.vcpus +
                     config.hardware_per_gb_second * MbToGb(span.mem_mb);
    hardware += rate * MicrosToSecs(span.busy) +
                rate * config.ka_cost_share * MicrosToSecs(span.idle);
  }

  // USD reconciliation: the aggregate cost figures must match an independent
  // recomputation from the per-span records they claim to summarize.
  auditor.CheckLazy(UsdClose(result.hardware_cost, hardware), "fleet.usd_reconciliation",
                    end, seed, [] { return "hardware_cost"; },
                    [&] { return UsdPair(result.hardware_cost, hardware); });
  auditor.CheckLazy(UsdClose(result.sandbox_seconds, sandbox_seconds) &&
                        UsdClose(result.busy_seconds, busy_seconds) &&
                        UsdClose(result.idle_seconds, idle_seconds),
                    "fleet.usd_reconciliation", end, seed,
                    [] { return "span aggregates"; }, [&] {
                      return "sandbox_s " +
                             UsdPair(result.sandbox_seconds, sandbox_seconds) +
                             "; busy_s " + UsdPair(result.busy_seconds, busy_seconds) +
                             "; idle_s " + UsdPair(result.idle_seconds, idle_seconds);
                    });
  auditor.CheckLazy(result.fee_revenue <= result.revenue + 1e-9,
                    "fleet.usd_conservation", end, seed, [] { return "revenue"; }, [&] {
                      return "fees=" + JsonWriter::FormatDouble(result.fee_revenue) +
                             " total=" + JsonWriter::FormatDouble(result.revenue);
                    });
  if (result.revenue > 0.0) {
    const double margin = (result.revenue - result.hardware_cost) / result.revenue;
    auditor.CheckLazy(UsdClose(result.margin, margin), "fleet.usd_reconciliation", end,
                      seed, [] { return "margin"; },
                      [&] { return UsdPair(result.margin, margin); });
  }
}

Usd RecomputeWorkflowTotalUsd(const WorkflowSimResult& result,
                              const WorkflowSimConfig& config,
                              const BillingModel& billing) {
  Usd total = 0.0;
  for (const HopAttempt& att : result.attempts) {
    if (!att.platform_dispatched) {
      continue;
    }
    const HopSpec& spec =
        config.dags[static_cast<size_t>(att.dag)].hops[static_cast<size_t>(att.hop)];
    total += ComputeInvoice(billing, BillableRecord(att.attempt, spec.vcpus, spec.mem_mb))
                 .total;
  }
  total += config.pricing.per_state_transition *
           static_cast<double>(result.counters.dispatched_attempts);
  total += (config.pricing.dlq_write_fee + config.pricing.dlq_read_fee) *
           static_cast<double>(result.counters.dead_letters);
  // Network charges walk a stateful tiered meter and cannot be re-derived
  // from attempts alone; the line item is carried over and cross-checked
  // against the per-workflow rows (and, bitwise, against kTransfer spans via
  // ReconcileTransferUsd) in AuditWorkflowRun.
  total += result.usd_network;
  return total;
}

void AuditWorkflowRun(const WorkflowSimResult& result, const WorkflowSimConfig& config,
                      uint64_t seed, Auditor& auditor, const BillingModel& billing) {
  const MicroSecs end = result.makespan;

  // Per-attempt invariants: unbilled-by-construction rows carry exactly $0,
  // billed rows match an independent re-pricing, and timelines are monotone.
  int64_t dispatched = 0, circuit_open = 0, upstream = 0, fail_fast = 0, dead = 0,
          hedge_losers = 0, cold = 0;
  for (size_t i = 0; i < result.attempts.size(); ++i) {
    const HopAttempt& att = result.attempts[i];
    const auto entity = [&] { return "attempt " + std::to_string(i); };
    const Outcome oc = att.attempt.outcome;
    auditor.CheckLazy(att.attempt.end >= att.attempt.dispatched &&
                          att.attempt.exec_duration >= 0 &&
                          att.attempt.init_duration >= 0,
                      "workflow.monotone_attempt_time", end, seed, entity, [&] {
                        return "dispatched=" + std::to_string(att.attempt.dispatched) +
                               " end=" + std::to_string(att.attempt.end);
                      });
    const bool never_billed =
        oc == Outcome::kCircuitOpen || oc == Outcome::kUpstreamFailed || att.fail_fast;
    auditor.CheckLazy(never_billed == !att.platform_dispatched, "workflow.never_billed",
                      end, seed, entity, [&] {
                        return std::string("outcome=") + OutcomeName(oc) +
                               " fail_fast=" + std::to_string(att.fail_fast) +
                               " dispatched=" + std::to_string(att.platform_dispatched);
                      });
    if (!att.platform_dispatched) {
      auditor.CheckLazy(!(std::fabs(att.usd) > 0.0) && att.attempt.exec_duration == 0,
                        "workflow.never_billed", end, seed, entity, [&] {
                          return "undispatched row carries usd=" +
                                 JsonWriter::FormatDouble(att.usd);
                        });
    } else {
      ++dispatched;
      const HopSpec& spec =
          config.dags[static_cast<size_t>(att.dag)].hops[static_cast<size_t>(att.hop)];
      const Usd want =
          ComputeInvoice(billing, BillableRecord(att.attempt, spec.vcpus, spec.mem_mb))
              .total;
      auditor.CheckLazy(UsdClose(att.usd, want), "workflow.usd_reconciliation", end, seed,
                        entity, [&] { return UsdPair(att.usd, want); });
    }
    if (oc == Outcome::kCircuitOpen) ++circuit_open;
    if (oc == Outcome::kUpstreamFailed) ++upstream;
    if (oc == Outcome::kDeadLettered) ++dead;
    if (oc == Outcome::kHedgeLoser) ++hedge_losers;
    if (att.fail_fast) ++fail_fast;
    if (att.attempt.cold_start) ++cold;
  }
  auditor.CheckLazy(dispatched == result.counters.dispatched_attempts &&
                        circuit_open == result.counters.circuit_open &&
                        upstream == result.counters.upstream_skipped &&
                        fail_fast == result.counters.fail_fast &&
                        dead == result.counters.dead_letters &&
                        hedge_losers == result.counters.hedge_losers &&
                        cold == result.counters.cold_starts,
                    "workflow.attempt_conservation", end, seed, [] { return "counters"; },
                    [&] {
                      return "recounted dispatched=" + std::to_string(dispatched) +
                             " circuit_open=" + std::to_string(circuit_open) +
                             " upstream=" + std::to_string(upstream) +
                             " fail_fast=" + std::to_string(fail_fast) +
                             " dead=" + std::to_string(dead) +
                             " hedge_losers=" + std::to_string(hedge_losers) +
                             " cold=" + std::to_string(cold);
                    });

  // Workflow-outcome partition and per-workflow USD conservation: every
  // instance terminated, and its USD is exactly the sum of its attempts'
  // invoices plus its transition and DLQ fee shares.
  int64_t ok = 0, failed = 0, degraded = 0;
  std::vector<Usd> wf_usd(result.workflows.size(), 0.0);
  std::vector<int64_t> wf_transitions(result.workflows.size(), 0);
  std::vector<int64_t> wf_dead(result.workflows.size(), 0);
  for (const HopAttempt& att : result.attempts) {
    const size_t w = static_cast<size_t>(att.wf);
    wf_usd[w] += att.usd;
    if (att.platform_dispatched) ++wf_transitions[w];
    if (att.attempt.outcome == Outcome::kDeadLettered) ++wf_dead[w];
  }
  const Usd fee_dlq = config.pricing.dlq_write_fee + config.pricing.dlq_read_fee;
  for (size_t i = 0; i < result.workflows.size(); ++i) {
    const WorkflowRow& row = result.workflows[i];
    const auto entity = [&] { return "wf " + std::to_string(i); };
    auditor.CheckLazy(row.end >= row.arrival, "workflow.monotone_attempt_time", end,
                      seed, entity, [&] {
                        return "arrival=" + std::to_string(row.arrival) +
                               " end=" + std::to_string(row.end);
                      });
    const Usd want = wf_usd[i] +
                     config.pricing.per_state_transition *
                         static_cast<double>(wf_transitions[i]) +
                     fee_dlq * static_cast<double>(wf_dead[i]) + row.usd_network;
    auditor.CheckLazy(UsdClose(row.usd, want), "workflow.usd_conservation", end, seed,
                      entity, [&] { return UsdPair(row.usd, want); });
    if (row.outcome == Outcome::kOk) {
      ++ok;
      if (row.degraded) ++degraded;
    } else {
      ++failed;
    }
  }
  auditor.CheckLazy(ok == result.counters.workflows_succeeded &&
                        failed == result.counters.workflows_failed &&
                        degraded == result.counters.degraded_successes &&
                        ok + failed == result.counters.workflows_started,
                    "workflow.outcome_partition", end, seed, [] { return "counters"; },
                    [&] {
                      return "recounted ok=" + std::to_string(ok) +
                             " failed=" + std::to_string(failed) +
                             " degraded=" + std::to_string(degraded) + " started=" +
                             std::to_string(result.counters.workflows_started);
                    });

  // Run-level USD conservation: the decomposition adds up, the workflow rows
  // add up to the run total, and the total matches an independent billing
  // recomputation (hedge losers and dead letters included).
  Usd attempts_usd = 0.0;
  for (const HopAttempt& att : result.attempts) {
    attempts_usd += att.usd;
  }
  auditor.CheckLazy(UsdClose(attempts_usd, result.usd_attempts),
                    "workflow.usd_conservation", end, seed, [] { return "usd_attempts"; },
                    [&] { return UsdPair(result.usd_attempts, attempts_usd); });
  const Usd line_items = result.usd_attempts + result.usd_transitions + result.usd_dlq +
                         result.usd_network;
  auditor.CheckLazy(UsdClose(result.usd_total, line_items), "workflow.usd_conservation",
                    end, seed, [] { return "usd_total"; },
                    [&] { return UsdPair(result.usd_total, line_items); });
  Usd rows_network = 0.0;
  for (const WorkflowRow& row : result.workflows) {
    rows_network += row.usd_network;
  }
  auditor.CheckLazy(UsdClose(rows_network, result.usd_network),
                    "workflow.usd_conservation", end, seed, [] { return "usd_network"; },
                    [&] { return UsdPair(rows_network, result.usd_network); });
  Usd rows_usd = 0.0;
  for (const WorkflowRow& row : result.workflows) {
    rows_usd += row.usd;
  }
  auditor.CheckLazy(UsdClose(rows_usd, result.usd_total), "workflow.usd_conservation",
                    end, seed, [] { return "workflow rows"; },
                    [&] { return UsdPair(rows_usd, result.usd_total); });
  const Usd decomposed = result.usd_useful + result.usd_wasted;
  auditor.CheckLazy(UsdClose(decomposed, result.usd_total), "workflow.usd_conservation",
                    end, seed, [] { return "waste decomposition"; },
                    [&] { return UsdPair(decomposed, result.usd_total); });
  const Usd recomputed = RecomputeWorkflowTotalUsd(result, config, billing);
  auditor.CheckLazy(UsdClose(result.usd_total, recomputed),
                    "workflow.usd_reconciliation", end, seed, [] { return "billing"; },
                    [&] { return UsdPair(result.usd_total, recomputed); });
}

}  // namespace faascost
