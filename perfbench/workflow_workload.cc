// workflow_fanout: SimulateWorkflows on a fan-out DAG (source -> 8 branches
// -> quorum-6 join) with uniform edge payloads, three zones and a zonal
// outage mirrored into an attached NetworkModel, crash and init faults,
// client retries and 600 ms hedging, a full Auditor during the run and
// AuditWorkflowRun after it. It is the only workload on the workflow
// engine's own event queue and warm pool.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/billing/catalog.h"
#include "src/common/units.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"
#include "workloads.h"

namespace faascost::perfbench {

namespace {

constexpr int64_t kWorkflows = 60'000;
constexpr int kBranches = 8;
constexpr int kQuorum = 6;
constexpr int64_t kKb = 1'024;
// Set-up takes tens of microseconds, too short to time steadily once, so it
// is built this many times and setup_s is the median; the run uses the last.
constexpr int kSetupSamples = 21;

ZonalOutageSpec FanOutOutage() {
  return ZonalOutageSpec{/*zone=*/0, /*start=*/600 * kMicrosPerSec,
                         /*duration=*/300 * kMicrosPerSec};
}

// The zonal outage is mirrored into the network model by hand (the engine
// does not do it for the caller).
NetworkModelConfig FanOutNetwork() {
  const ZonalOutageSpec outage = FanOutOutage();
  NetworkModelConfig ncfg;
  ncfg.topology.zones = 3;
  ncfg.topology.zones_per_region = 3;
  ncfg.class_a_ops_per_request = 1;
  ncfg.class_b_ops_per_request = 2;
  ncfg.outages.push_back(NetOutage{outage.zone, outage.start, outage.duration});
  RequireValid(ncfg.Validate(), "workflow_fanout network");
  return ncfg;
}

// Everything SimulateWorkflows needs. Built in place and never moved: the
// config points at the network model and the auditor next to it.
struct FanOutSetup {
  explicit FanOutSetup(uint64_t seed)
      : net(FanOutNetwork(), MakeNetworkPricing(Platform::kAwsLambda), seed),
        billing(MakeBillingModel(Platform::kAwsLambda)) {
    cfg.workflows = kWorkflows;
    cfg.wps = 20.0;
    cfg.zones = net.zones();
    cfg.failure_rate = 0.05;
    cfg.init_failure_rate = 0.0125;
    cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
    HopSpec proto;
    proto.exec_mean = 80 * kMicrosPerMilli;
    WorkflowDag dag = MakeFanOutDag("fanout", kBranches, kQuorum, proto);
    ApplyUniformPayloads(dag, /*input=*/16 * kKb, /*edge=*/64 * kKb, /*output=*/16 * kKb);
    hops = static_cast<int64_t>(dag.hops.size());
    cfg.dags.push_back(std::move(dag));
    cfg.policy.retry.max_attempts = 3;
    cfg.policy.hedge.hedge_after = 600 * kMicrosPerMilli;
    cfg.outages.push_back(FanOutOutage());
    cfg.network = &net;
    cfg.auditor = &auditor;
    RequireValid(cfg.Validate(), "workflow_fanout config");
  }
  FanOutSetup(const FanOutSetup&) = delete;
  FanOutSetup& operator=(const FanOutSetup&) = delete;

  NetworkModel net;
  Auditor auditor{AuditLevel::kFull};
  BillingModel billing;
  WorkflowSimConfig cfg;
  int64_t hops = 0;
};

}  // namespace

WorkloadOutputs RunWorkflowFanOut(uint64_t seed, LayerTracer& tracer) {
  std::unique_ptr<FanOutSetup> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    setup.reset();
    tracer.SampleSetup([&] { setup = std::make_unique<FanOutSetup>(seed); });
  }
  const WorkflowSimConfig& cfg = setup->cfg;
  Auditor& auditor = setup->auditor;

  tracer.MarkRunEntered();
  const WorkflowSimResult res = tracer.Time(
      "workflow.run", [&] { return SimulateWorkflows(cfg, setup->billing, seed); });
  tracer.Time("integrity.audit",
              [&] { AuditWorkflowRun(res, cfg, seed, auditor, setup->billing); });

  const WorkflowCounters& c = res.counters;
  WorkloadOutputs out;
  out.work_units = kWorkflows * setup->hops;
  out.counts.emplace_back("workflow.started", c.workflows_started);
  out.counts.emplace_back("workflow.succeeded", c.workflows_succeeded);
  out.counts.emplace_back("workflow.failed", c.workflows_failed);
  out.counts.emplace_back("workflow.degraded", c.degraded_successes);
  out.counts.emplace_back("workflow.attempts", static_cast<int64_t>(res.attempts.size()));
  out.counts.emplace_back("workflow.dispatched", c.dispatched_attempts);
  out.counts.emplace_back("workflow.retries", c.client_retries);
  out.counts.emplace_back("workflow.hedges", c.hedges);
  out.counts.emplace_back("workflow.stragglers", c.stragglers);
  out.counts.emplace_back("workflow.cold_starts", c.cold_starts);
  out.counts.emplace_back("workflow.outage_killed", c.outage_killed);
  out.counts.emplace_back("net.transfers", res.net_transfers);
  out.counts.emplace_back("net.rerouted", setup->net.bill().rerouted_transfers);
  out.counts.emplace_back("net.bytes", res.net_bytes);
  out.usd.emplace_back("workflow.total_usd", res.usd_total);
  out.usd.emplace_back("workflow.attempts_usd", res.usd_attempts);
  out.usd.emplace_back("workflow.network_usd", res.usd_network);
  out.usd.emplace_back("workflow.wasted_usd", res.usd_wasted);
  out.engine_work.emplace_back("integrity.checks", auditor.checks_run());
  return out;
}

}  // namespace faascost::perfbench
