// fleet_chaos and fleet_observed: the FleetEngine pipeline at day scale.
//
// fleet_chaos is `faascost audit --sim fleet --requests 1000000 --functions
// 2000 --seconds 86400` (host faults on, full Auditor, every obs and network
// hook null); at seed 7 it reproduces that command's counts and billed USD.
// fleet_observed turns host faults off and attaches what `faascost monitor`
// and `faascost network` attach (spans, windowed telemetry, the engine
// profiler, a 3-zone network with an outage), then runs both reconciliation
// gates and the exports to memory.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/units.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/exporters.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/trace/generator.h"
#include "src/trace/record.h"
#include "workloads.h"

namespace faascost::perfbench {

namespace {

constexpr int64_t kFunctions = 2'000;
constexpr MicroSecs kDay = 86'400LL * kMicrosPerSec;

TraceGenConfig DayTrace(int64_t requests) {
  TraceGenConfig cfg;
  cfg.num_requests = requests;
  cfg.num_functions = kFunctions;
  cfg.window = kDay;
  return cfg;
}

void AddFleetCounts(const FleetResult& res, WorkloadOutputs* out) {
  out->counts.emplace_back("cluster.requests", res.requests);
  out->counts.emplace_back("cluster.attempts", res.attempts);
  out->counts.emplace_back("cluster.successes", res.successes);
  out->counts.emplace_back("cluster.cold_starts", res.cold_starts);
  out->counts.emplace_back("cluster.sandboxes", res.sandboxes);
  out->counts.emplace_back("cluster.failed_attempts", res.failed_attempts);
  out->counts.emplace_back("cluster.host_kills", res.host_fault_sandbox_kills);
  out->counts.emplace_back("cluster.host_attempt_kills", res.host_fault_attempt_kills);
  out->counts.emplace_back("cluster.peak_servers", res.peak_servers);
  out->usd.emplace_back("cluster.billed_usd", res.revenue);
  out->usd.emplace_back("cluster.fee_usd", res.fee_revenue);
  out->usd.emplace_back("cluster.hardware_usd", res.hardware_cost);
}

}  // namespace

WorkloadOutputs RunFleetChaos(uint64_t seed, LayerTracer& tracer) {
  const TraceGenConfig tcfg = DayTrace(1'000'000);
  const std::vector<RequestRecord> trace = tracer.Time(
      "trace.generate", [&] { return TraceGenerator(tcfg, seed).Generate(); });
  const uint64_t input_digest =
      tracer.Time("cluster.digest_trace", [&] { return FleetEngine::DigestTrace(trace); });

  FleetSimConfig fcfg;
  fcfg.fault_seed = seed;
  fcfg.retry.max_attempts = 3;
  fcfg.host_faults.hosts = 16;
  fcfg.host_faults.mtbf_seconds = 3'600.0;
  fcfg.host_faults.mttr_seconds = 120.0;
  fcfg.host_faults.graceful_fraction = 0.3;
  Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/8'192);
  fcfg.auditor = &auditor;
  RequireValid(fcfg.Validate(), "fleet_chaos config");
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  FleetEngine engine(fcfg);
  tracer.Time("cluster.start", [&] { engine.Start(trace, billing); });
  tracer.MarkRunEntered();
  tracer.Time("cluster.run", [&] { engine.RunToEnd(); });
  const uint64_t state_digest =
      tracer.Time("integrity.state_digest", [&] { return engine.Digest(); });
  const FleetResult res = tracer.Time("cluster.finish", [&] { return engine.Finish(); });
  tracer.Time("integrity.audit", [&] { AuditFleetRun(res, fcfg, auditor); });

  WorkloadOutputs out;
  out.work_units = static_cast<int64_t>(trace.size());
  AddFleetCounts(res, &out);
  out.engine_work.emplace_back("integrity.checks", auditor.checks_run());
  out.engine_work.emplace_back("integrity.scans", auditor.scans_run());
  out.digests.emplace_back("cluster.input_digest", input_digest);
  out.digests.emplace_back("cluster.state_digest", state_digest);
  return out;
}

WorkloadOutputs RunFleetObserved(uint64_t seed, LayerTracer& tracer) {
  TraceGenConfig tcfg = DayTrace(500'000);
  tcfg.failure_rate_mean = 0.02;
  tcfg.payload_request_mean_kb = 16.0;
  tcfg.payload_response_mean_kb = 64.0;
  const std::vector<RequestRecord> trace = tracer.Time(
      "trace.generate", [&] { return TraceGenerator(tcfg, seed).Generate(); });
  const uint64_t input_digest =
      tracer.Time("cluster.digest_trace", [&] { return FleetEngine::DigestTrace(trace); });

  NetworkModelConfig ncfg;
  ncfg.topology.zones = 3;
  ncfg.topology.zones_per_region = 3;
  ncfg.class_a_ops_per_request = 1;
  ncfg.class_b_ops_per_request = 2;
  ncfg.outages.push_back(NetOutage{/*zone=*/0, /*start=*/6 * 3'600 * kMicrosPerSec,
                                   /*duration=*/3'600 * kMicrosPerSec});
  RequireValid(ncfg.Validate(), "fleet_observed network");
  NetworkModel net(ncfg, MakeNetworkPricing(Platform::kAwsLambda), seed);

  SpanCollector sink;
  TimeSeries series(60 * kMicrosPerSec);
  SloSpec slo;
  slo.target = 0.99;
  slo.objective_id = series.AddLatencyObjective(1'000 * kMicrosPerMilli);
  EngineProfiler profiler;

  FleetSimConfig fcfg;
  fcfg.fault_seed = seed;
  fcfg.retry.max_attempts = 3;
  fcfg.network = &net;
  fcfg.trace_sink = &sink;
  fcfg.timeseries = &series;
  fcfg.profiler = &profiler;
  RequireValid(fcfg.Validate(), "fleet_observed config");
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  FleetEngine engine(fcfg);
  tracer.Time("cluster.start", [&] { engine.Start(trace, billing); });
  tracer.MarkRunEntered();
  tracer.Time("cluster.run", [&] { engine.RunToEnd(); });
  const FleetResult res = tracer.Time("cluster.finish", [&] { return engine.Finish(); });

  {
    const LayerTracer::Scope reconcile = tracer.Open("obs.reconcile");
    RequireReconciled(tracer.Time("obs.reconcile.transfer_usd",
                                  [&] { return ReconcileTransferUsd(series, sink.spans()); }),
                      "transfer-USD");
    RequireReconciled(tracer.Time("obs.reconcile.billed_usd",
                                  [&] { return ReconcileBilledUsd(series, sink.spans()); }),
                      "billed-USD");
  }
  const NetworkBill& bill = net.bill();
  if (res.net_transfers != bill.transfers || res.net_bytes != series.TotalNetBytes()) {
    throw std::runtime_error("network meter and fleet engine disagree on transfers");
  }

  std::vector<SloAlert> alerts;
  size_t export_bytes = 0;
  {
    const LayerTracer::Scope exports = tracer.Open("obs.export");
    alerts = tracer.Time("obs.export.evaluate_slo", [&] { return EvaluateSlo(series, slo); });
    export_bytes += tracer.Time("obs.export.timeseries_jsonl",
                                [&] { return TimeSeriesJsonl(series); }).size();
    export_bytes += tracer.Time("obs.export.alerts_jsonl",
                                [&] { return SloAlertsJsonl(alerts); }).size();
    export_bytes += tracer.Time("obs.export.profile_json",
                                [&] { return profiler.ChromeTraceJson(); }).size();
  }
  if (export_bytes == 0) {
    throw std::runtime_error("fleet_observed exports are empty");
  }

  WorkloadOutputs out;
  out.work_units = static_cast<int64_t>(trace.size());
  AddFleetCounts(res, &out);
  out.counts.emplace_back("cluster.crash_attempts", res.crash_attempts);
  out.counts.emplace_back("cluster.retries_exhausted", res.retries_exhausted);
  out.counts.emplace_back("obs.spans", static_cast<int64_t>(sink.spans().size()));
  out.counts.emplace_back("obs.windows", static_cast<int64_t>(series.window_count()));
  out.counts.emplace_back("obs.alerts", static_cast<int64_t>(alerts.size()));
  out.counts.emplace_back("net.transfers", bill.transfers);
  out.counts.emplace_back("net.rerouted", bill.rerouted_transfers);
  out.counts.emplace_back("net.bytes", res.net_bytes);
  out.usd.emplace_back("net.transfer_usd", res.network_transfer_usd);
  out.usd.emplace_back("net.ops_usd", res.network_ops_usd);
  out.usd.emplace_back("obs.series_billed_usd", series.TotalBilledUsd());
  out.engine_work.emplace_back("cluster.events", profiler.events_total());
  out.engine_work.emplace_back("cluster.queue_peak", profiler.queue_depth_peak());
  out.digests.emplace_back("cluster.input_digest", input_digest);
  return out;
}

}  // namespace faascost::perfbench
