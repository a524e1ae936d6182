// platform_topdown: the paper's top-down chain on the event-driven
// PlatformEngine — billing model, then serving architecture, then OS
// scheduling. GCP preset (multi-concurrency 80, windowed autoscaler),
// Poisson arrivals, crash faults with client retries, spans and windowed
// telemetry attached; after the run the post-hoc pricing, ingest, audit,
// network metering, reconciliation, co-tenant host simulation and span
// export.
//
// Call order matters: AuditPlatformRun must run before MeterPlatformNetwork.
// Metering adds transfer time to each request's e2e_latency but does not
// move its completion time, so the audit's platform.request_conservation
// check throws if it sees a metered result.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/billing/catalog.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/observe.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/exporters.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/sched/host_sim.h"
#include "workloads.h"

namespace faascost::perfbench {

namespace {

constexpr double kRps = 20.0;
constexpr MicroSecs kDuration = 1'800LL * kMicrosPerSec;
constexpr int kCotenants = 4;

}  // namespace

WorkloadOutputs RunPlatformTopDown(uint64_t seed, LayerTracer& tracer) {
  PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
  cfg.faults.crash_prob = 0.02;
  cfg.faults.init_failure_prob = 0.005;
  cfg.retry.max_attempts = 3;
  SpanCollector sink;
  TimeSeries series(60 * kMicrosPerSec);
  cfg.trace = &sink;
  cfg.timeseries = &series;
  RequireValid(cfg.Validate(), "platform_topdown config");
  const BillingModel billing = MakeBillingModel(Platform::kGcpCloudRunFunctions);

  NetworkModelConfig ncfg;
  ncfg.topology.zones = 3;
  ncfg.topology.zones_per_region = 3;
  // Platform attempts carry no payload hints, so sizes are drawn.
  ncfg.payload.request_mean_kb = 16.0;
  ncfg.payload.response_mean_kb = 64.0;
  ncfg.class_a_ops_per_request = 1;
  ncfg.class_b_ops_per_request = 2;
  ncfg.outages.push_back(NetOutage{/*zone=*/0, /*start=*/600 * kMicrosPerSec,
                                   /*duration=*/300 * kMicrosPerSec});
  RequireValid(ncfg.Validate(), "platform_topdown network");
  NetworkModel net(ncfg, MakeNetworkPricing(Platform::kGcpCloudRunFunctions), seed);

  const std::vector<MicroSecs> arrivals = tracer.Time("platform.arrivals", [&] {
    Rng rng(seed);
    return PoissonArrivals(kRps, kDuration, rng);
  });
  PlatformEngine engine(cfg, seed);
  tracer.Time("platform.start", [&] { engine.Start(arrivals, PyAesWorkload()); });
  tracer.MarkRunEntered();
  tracer.Time("platform.run", [&] { engine.RunToEnd(); });
  PlatformSimResult res = tracer.Time("platform.finish", [&] { return engine.Finish(); });

  const ProvenanceTotals priced = tracer.Time("core.price_spans", [&] {
    return TagPlatformSpanBilling(sink.mutable_spans(), res, cfg, billing);
  });
  tracer.Time("obs.ingest", [&] { IngestBilledSpans(series, sink.spans()); });
  Auditor auditor(AuditLevel::kFull);
  tracer.Time("integrity.audit", [&] {
    AuditPlatformRun(res, cfg, seed, auditor, &billing, priced.billed_usd);
  });
  const NetworkTotals metered = tracer.Time("core.meter_network", [&] {
    return MeterPlatformNetwork(net, &res, sink.mutable_spans(), &series);
  });
  {
    const LayerTracer::Scope reconcile = tracer.Open("obs.reconcile");
    RequireReconciled(tracer.Time("obs.reconcile.billed_usd",
                                  [&] { return ReconcileBilledUsd(series, sink.spans()); }),
                      "billed-USD");
    RequireReconciled(tracer.Time("obs.reconcile.transfer_usd",
                                  [&] { return ReconcileTransferUsd(series, sink.spans()); }),
                      "transfer-USD");
  }
  if (metered.transfers != net.bill().transfers) {
    throw std::runtime_error("network meter and platform metering disagree on transfers");
  }

  // Co-tenants contending on one host for the same half hour, writing throttle
  // and preempt spans into the same sink (the `faascost observe` shape).
  HostSimConfig host;
  host.duration = kDuration;
  host.trace = &sink;
  std::vector<TenantSpec> tenants(kCotenants);
  for (size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].quota_fraction = 0.5;
    tenants[i].demand_fraction = i == 0 ? 1.0 : 0.7;
  }
  const HostSimResult hosted =
      tracer.Time("sched.host", [&] { return SimulateHost(host, tenants, seed); });
  int64_t gaps = 0;
  for (const TenantResult& t : hosted.tenants) {
    gaps += static_cast<int64_t>(t.gaps.size());
  }

  const size_t chrome_bytes =
      tracer.Time("obs.export", [&] { return ChromeTraceJson(sink.spans()); }).size();
  if (chrome_bytes == 0) {
    throw std::runtime_error("platform_topdown span export is empty");
  }

  WorkloadOutputs out;
  out.work_units = static_cast<int64_t>(arrivals.size());
  out.counts.emplace_back("platform.requests", static_cast<int64_t>(res.requests.size()));
  out.counts.emplace_back("platform.attempts", static_cast<int64_t>(res.attempts.size()));
  out.counts.emplace_back("platform.successes", res.successes);
  out.counts.emplace_back("platform.cold_starts", res.cold_starts);
  out.counts.emplace_back("platform.failed_attempts", res.failed_attempts);
  out.counts.emplace_back("platform.sandboxes", static_cast<int64_t>(res.sandboxes.size()));
  out.counts.emplace_back("core.tagged_spans", priced.tagged_spans);
  out.counts.emplace_back("obs.spans", static_cast<int64_t>(sink.spans().size()));
  out.counts.emplace_back("obs.windows", static_cast<int64_t>(series.window_count()));
  out.counts.emplace_back("net.transfers", metered.transfers);
  out.counts.emplace_back("net.rerouted", net.bill().rerouted_transfers);
  out.counts.emplace_back("net.bytes", metered.bytes);
  out.counts.emplace_back("sched.gaps", gaps);
  out.usd.emplace_back("core.billed_usd", priced.billed_usd);
  out.usd.emplace_back("core.failed_usd", priced.failed_usd);
  out.usd.emplace_back("net.transfer_usd", metered.transfer_usd);
  out.usd.emplace_back("net.ops_usd", metered.ops_usd);
  out.usd.emplace_back("obs.series_billed_usd", series.TotalBilledUsd());
  out.engine_work.emplace_back("integrity.checks", auditor.checks_run());
  return out;
}

}  // namespace faascost::perfbench
