// Cost provenance for PlatformSim traces: stamps every attempt's terminal
// span with the billed microseconds and USD of that attempt's invoice, so a
// trace answers "where did this dollar go". FleetSim tags spans inline (it
// computes invoices as it runs); PlatformSim does not link billing, so the
// tagging lives here at the core layer.

#ifndef FAASCOST_CORE_OBSERVE_H_
#define FAASCOST_CORE_OBSERVE_H_

#include "src/billing/model.h"
#include "src/net/model.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"

namespace faascost {

struct ProvenanceTotals {
  Usd billed_usd = 0.0;            // Sum over all attempts' invoices.
  Usd failed_usd = 0.0;            // Share billed to non-kOk attempts.
  MicroSecs billed_micros = 0;     // Sum of rounded billable time.
  int64_t tagged_spans = 0;        // Terminal spans that received a tag.
};

// Prices every attempt of `result` under `billing` (via BillableRecord with
// the config's allocation), in attempt order, so every report of one run sums
// the same doubles; appends each invoice to `invoices` if non-null.
ProvenanceTotals PricePlatformRun(const PlatformSimResult& result,
                                  const PlatformSimConfig& config, const BillingModel& billing,
                                  std::vector<Invoice>* invoices = nullptr);

// Prices every attempt of `result` under `billing` (PricePlatformRun, with
// the config's allocation) and writes each invoice onto the attempt's
// terminal span — the span with `terminal` set, found through `Span::ref`.
// Returns the run's invoice totals; by construction the USD tags across
// `spans` sum to `billed_usd` exactly. Spans from other simulators (no ref /
// not terminal) are left untouched.
ProvenanceTotals TagPlatformSpanBilling(SpanLog* spans,
                                        const PlatformSimResult& result,
                                        const PlatformSimConfig& config,
                                        const BillingModel& billing);

// Meters every executed attempt's round trip through `net` (MeterRoundTrip,
// src/net/model.h) in attempt-emission order, after the run: PlatformSim does
// not link the network model's price sheet, and its digests and checkpoints
// stay untouched. Attempts that never reached a sandbox (shed, rejected,
// breaker-dropped) move nothing; the others run in ZoneOf(sandbox). Spans go
// to `spans` and telemetry to `series` (either may be null). The terminal
// attempt's transfer time moves its request's completion and e2e_latency,
// so a metered result still passes AuditPlatformRun.
NetworkTotals MeterPlatformNetwork(NetworkModel& net, PlatformSimResult* result,
                                   SpanLog* spans, TimeSeries* series);

}  // namespace faascost

#endif  // FAASCOST_CORE_OBSERVE_H_
