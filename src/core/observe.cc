#include "src/core/observe.h"

namespace faascost {

ProvenanceTotals TagPlatformSpanBilling(SpanLog* spans,
                                        const PlatformSimResult& result,
                                        const PlatformSimConfig& config,
                                        const BillingModel& billing) {
  ProvenanceTotals totals;
  std::vector<Invoice> invoices;
  invoices.reserve(result.attempts.size());
  for (const AttemptOutcome& att : result.attempts) {
    const Invoice inv =
        ComputeInvoice(billing, BillableRecord(att, config.vcpus, config.mem_mb));
    totals.billed_usd += inv.total;
    totals.billed_micros += inv.billable_time;
    if (att.outcome != Outcome::kOk) {
      totals.failed_usd += inv.total;
    }
    invoices.push_back(inv);
  }
  for (Span& sp : *spans) {
    if (!sp.terminal || sp.group != kTrackGroupClient || sp.ref < 0 ||
        sp.ref >= static_cast<int64_t>(invoices.size())) {
      continue;
    }
    const Invoice& inv = invoices[static_cast<size_t>(sp.ref)];
    sp.billed_micros = inv.billable_time;
    sp.billed_usd = inv.total;
    ++totals.tagged_spans;
  }
  return totals;
}

namespace {

// Appends to a caller-owned span log.
struct AppendSink final : TraceSink {
  explicit AppendSink(SpanLog* spans) : out(spans) {}
  void Record(const Span& span) override { out->push_back(span); }
  SpanLog* out;
};

}  // namespace

NetworkTotals MeterPlatformNetwork(NetworkModel& net, PlatformSimResult* result,
                                   SpanLog* spans, TimeSeries* series) {
  NetworkTotals totals;
  AppendSink append(spans);
  TraceSink* sink = spans != nullptr ? &append : nullptr;
  for (const AttemptOutcome& att : result->attempts) {
    if (att.sandbox_id < 0) {
      continue;  // Never reached a sandbox: no bytes moved.
    }
    RoundTrip trip;
    trip.zone = net.ZoneOf(att.sandbox_id);
    trip.ok = att.outcome == Outcome::kOk;
    trip.payload = net.PayloadFor(/*function_id=*/0, att.req_idx, att.attempt - 1,
                                  /*request_hint=*/0, /*response_hint=*/0, trip.ok);
    trip.sent = att.dispatched;
    trip.returned = att.end;
    trip.label.group = kTrackGroupClient;
    trip.label.track = att.req_idx;
    trip.label.req_idx = att.req_idx;
    trip.label.attempt = att.attempt;
    const MicroSecs delay = MeterRoundTrip(net, trip, &totals, sink, series);
    if (att.req_idx >= 0 && att.req_idx < static_cast<int>(result->requests.size())) {
      RequestOutcome& req = result->requests[static_cast<size_t>(att.req_idx)];
      if (att.attempt == req.attempts) {
        // The client sees the response that much later.
        req.completion += delay;
        req.e2e_latency += delay;
      }
    }
  }
  return totals;
}

}  // namespace faascost
