// Zonal outage with egress consequences: one chaos scenario, two bills.
//
// The same outage window feeds both layers it hurts. In the workflow
// engine's outages it models the *capacity* consequence — attempts in the
// dead zone are killed and retried elsewhere, re-billing compute. Copied
// into the network model's outages it models the *egress* consequence —
// the zone's internet uplink and region peerings go dark, so surviving
// traffic detours over a peer zone's backup uplink and pays cross-zone
// per-GB charges the healthy route never sees, through a thinner pipe.
// Chaos engineering that only counts retries under-bills its own experiment.

#include <cstdio>

#include "src/billing/catalog.h"
#include "src/billing/model.h"
#include "src/net/model.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

int main() {
  using namespace faascost;
  constexpr int64_t kMb = 1'048'576;
  constexpr MicroSecs kSec = kMicrosPerSec;
  constexpr uint64_t kSeed = 21;
  // Zone 0 dies 10 s into the run, for 20 s. Zone 0 hosts the region's
  // internet uplink, so this is the worst case for egress: every byte
  // leaving the region must detour over a peer zone's backup uplink.
  constexpr int kDeadZone = 0;
  constexpr MicroSecs kOutageStart = 10 * kSec;
  constexpr MicroSecs kOutageLen = 20 * kSec;
  const ZonalOutageSpec window{kDeadZone, kOutageStart, kOutageLen};

  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

  const auto run = [&](const char* label, bool chaos) {
    NetworkModelConfig ncfg;
    ncfg.topology.zones = 3;
    ncfg.topology.zones_per_region = 3;
    if (chaos) {
      // The network consequence: the same window darkens the zone's edge.
      ncfg.outages.push_back(window);
    }
    NetworkModel net(ncfg, MakeNetworkPricing(Platform::kAwsLambda), kSeed);

    HopSpec proto;
    WorkflowDag dag = MakeChainDag("api", 4, proto, /*spread_zones=*/true);
    ApplyUniformPayloads(dag, /*input=*/kMb, /*edge=*/8 * kMb, /*output=*/4 * kMb);

    WorkflowSimConfig cfg;
    cfg.dags.push_back(std::move(dag));
    cfg.workflows = 200;
    cfg.wps = 4.0;
    cfg.zones = 3;
    cfg.policy.retry.max_attempts = 4;
    cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
    cfg.network = &net;
    if (chaos) {
      // The capacity consequence: kill in-flight attempts in the dead zone.
      cfg.outages.push_back(window);
    }
    const WorkflowSimResult r = SimulateWorkflows(cfg, billing, kSeed);

    std::printf("%-8s  ok %lld/%lld  kills %lld  retries %lld  compute $%.6f  "
                "network $%.6f\n          (detour surcharge $%.6f over %lld "
                "rerouted transfers)\n",
                label, static_cast<long long>(r.counters.workflows_succeeded),
                static_cast<long long>(cfg.workflows),
                static_cast<long long>(r.counters.outage_killed),
                static_cast<long long>(r.counters.client_retries), r.usd_attempts,
                r.usd_network, r.usd_network_detour,
                static_cast<long long>(net.bill().rerouted_transfers));
    return r;
  };

  std::printf("Zonal outage, both consequences priced (AWS, 3 zones, "
              "4-hop chain, zone %d down %llds-%llds):\n\n",
              kDeadZone, static_cast<long long>(kOutageStart / kSec),
              static_cast<long long>((kOutageStart + kOutageLen) / kSec));
  const WorkflowSimResult healthy = run("healthy", /*chaos=*/false);
  const WorkflowSimResult outage = run("outage", /*chaos=*/true);

  // Failed workflows ship fewer bytes, so compare what one *success* costs:
  // the outage raises it through retried compute AND detoured egress.
  const auto per_success = [](const WorkflowSimResult& r) {
    return r.counters.workflows_succeeded > 0
               ? r.usd_total / static_cast<double>(r.counters.workflows_succeeded)
               : 0.0;
  };
  std::printf("\nCost per successful workflow: $%.6f healthy vs $%.6f under "
              "outage (%+.1f%%),\nof which $%.6f is pure detour surcharge — "
              "dollars a retry-counting chaos\nreport never sees.\n",
              per_success(healthy), per_success(outage),
              per_success(healthy) > 0.0
                  ? (per_success(outage) / per_success(healthy) - 1.0) * 100.0
                  : 0.0,
              outage.usd_network_detour);
  return 0;
}
