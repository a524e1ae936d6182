// Field-level WorkflowSimResult goldens: three workflow shapes at seeds 7
// and 8. Counters are pinned as integers, every USD total as its IEEE-754
// bit pattern, and the attempt rows, workflow rows and breaker transitions
// as one FNV digest over every field.
//
// The values were computed by the engine that pushed every workflow arrival
// into its event heap at start, swept every attempt row ever created at each
// audit scan and zonal outage, and kept every instance's hop state to the
// end of the run. The engine that streams arrivals from a cursor, keeps row
// bookkeeping only from its low-water mark of open rows on, scans only from
// that mark, and frees each instance's hop state after its last event must
// reproduce them exactly. The tie-break shape makes arrival instants
// coincide with completions and with an outage start, so the cursor/heap
// merge order is pinned where it matters. kFanOut, the one shape with
// network transfers, also pins digests over every emitted span and every
// time-series window. A failure prints the actual table, ready to paste if a
// change is meant to move it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/billing/catalog.h"
#include "src/integrity/digest.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"
#include "tests/golden_table.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
constexpr MicroSecs kMs = kMicrosPerMilli;
constexpr int64_t kKb = 1'024;

enum class Shape { kFanOut, kChainAsync, kTieBreak };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kFanOut:
      return "kFanOut";
    case Shape::kChainAsync:
      return "kChainAsync";
    case Shape::kTieBreak:
      return "kTieBreak";
  }
  return "?";
}

// One shape's config plus the network model it may point at. Built in place
// and never moved: the config holds a pointer to `net`.
struct ShapeSetup {
  ShapeSetup(Shape shape, uint64_t seed) {
    cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
    switch (shape) {
      case Shape::kFanOut: {
        // workflow_fanout at a twentieth of its size: quorum join, hedging,
        // a zonal outage mirrored into an attached network model.
        const ZonalOutageSpec outage{/*zone=*/0, /*start=*/60 * kSec,
                                     /*duration=*/30 * kSec};
        NetworkModelConfig ncfg;
        ncfg.topology.zones = 3;
        ncfg.topology.zones_per_region = 3;
        ncfg.class_a_ops_per_request = 1;
        ncfg.class_b_ops_per_request = 2;
        ncfg.outages.push_back(NetOutage{outage.zone, outage.start, outage.duration});
        net = std::make_unique<NetworkModel>(ncfg, MakeNetworkPricing(Platform::kAwsLambda),
                                             seed);
        cfg.workflows = 3'000;
        cfg.wps = 20.0;
        cfg.zones = ncfg.topology.zones;
        cfg.failure_rate = 0.05;
        cfg.init_failure_rate = 0.0125;
        HopSpec proto;
        proto.exec_mean = 80 * kMs;
        WorkflowDag dag = MakeFanOutDag("fanout", 8, 6, proto);
        for (size_t h = 0; h < dag.hops.size(); ++h) {
          dag.hops[h].zone = static_cast<int>(h);
        }
        ApplyUniformPayloads(dag, 16 * kKb, 64 * kKb, 16 * kKb);
        cfg.dags.push_back(std::move(dag));
        cfg.policy.retry.max_attempts = 3;
        cfg.policy.hedge.hedge_after = 120 * kMs;
        cfg.outages.push_back(outage);
        cfg.network = net.get();
        break;
      }
      case Shape::kChainAsync: {
        // A four-hop chain whose third hop is an async delivery: provider
        // redrives and dead letters under a propagated deadline, with a
        // client breaker on the sync hops.
        cfg.workflows = 2'000;
        cfg.wps = 10.0;
        cfg.failure_rate = 0.08;
        cfg.init_failure_rate = 0.02;
        HopSpec proto;
        proto.exec_mean = 150 * kMs;
        proto.exec_cv = 0.5;
        proto.timeout = 400 * kMs;
        WorkflowDag dag = MakeChainDag("chain", 4, proto);
        dag.hops[1].failure_rate = 0.3;
        dag.hops[2].async = true;
        dag.hops[2].failure_rate = 0.35;
        cfg.dags.push_back(std::move(dag));
        cfg.policy.retry.max_attempts = 3;
        cfg.policy.retry.breaker_threshold = 3;
        cfg.policy.retry.breaker_cooldown = 2 * kSec;
        cfg.policy.redrive.max_redrives = 2;
        cfg.policy.redrive.redrive_delay = 500 * kMs;
        cfg.policy.deadline.deadline = 2'500 * kMs;
        cfg.policy.deadline.propagate = true;
        break;
      }
      case Shape::kTieBreak: {
        // Deterministic durations on the 100 ms arrival grid: init 300 ms,
        // exec 200 ms, fixed backoffs, a grid-aligned outage start and
        // hedges. Arrivals land on the same instants as completions, hedge
        // fires, retries and the outage.
        cfg.workflows = 1'500;
        cfg.wps = 10.0;
        cfg.init_mean = 300 * kMs;
        cfg.init_jitter = 0.0;
        cfg.keepalive = 1 * kSec;
        cfg.zones = 2;
        cfg.init_failure_rate = 0.03;
        HopSpec proto;
        proto.exec_mean = 200 * kMs;
        proto.exec_cv = 0.0;
        WorkflowDag dag = MakeFanOutDag("grid", 3, 2, proto);
        dag.hops[1].zone = 1;
        cfg.dags.push_back(std::move(dag));
        cfg.dags.push_back(MakeChainDag("grid_chain", 3, proto, /*spread_zones=*/true));
        cfg.policy.retry.max_attempts = 3;
        cfg.policy.retry.full_jitter = false;
        cfg.policy.hedge.hedge_after = 400 * kMs;
        cfg.outages.push_back(ZonalOutageSpec{/*zone=*/1, /*start=*/30 * kSec,
                                              /*duration=*/10 * kSec});
        break;
      }
    }
  }
  ShapeSetup(const ShapeSetup&) = delete;
  ShapeSetup& operator=(const ShapeSetup&) = delete;

  std::unique_ptr<NetworkModel> net;
  WorkflowSimConfig cfg;
};

using golden::Bits;
using golden::Hex;

// Every WorkflowSimResult field, as (name, rendered value) in declaration
// order.
golden::Fields Render(const WorkflowSimResult& r) {
  StateDigest rows;
  for (const HopAttempt& h : r.attempts) {
    rows.MixI64(h.wf);
    rows.MixI64(h.dag);
    rows.MixI64(h.hop);
    const AttemptOutcome& a = h.attempt;
    rows.MixI64(a.req_idx);
    rows.MixI64(a.attempt);
    rows.MixI64(static_cast<int64_t>(a.outcome));
    rows.MixI64(a.dispatched);
    rows.MixI64(a.start_exec);
    rows.MixI64(a.end);
    rows.MixI64(a.exec_duration);
    rows.MixBool(a.cold_start);
    rows.MixI64(a.init_duration);
    rows.MixI64(a.sandbox_id);
    rows.MixBool(a.client_abandoned);
    rows.MixBool(h.hedge);
    rows.MixBool(h.provider_redrive);
    rows.MixBool(h.fail_fast);
    rows.MixBool(h.straggler);
    rows.MixBool(h.outage_killed);
    rows.MixBool(h.platform_dispatched);
    rows.MixDouble(h.usd);
  }
  for (const WorkflowRow& w : r.workflows) {
    rows.MixI64(w.wf);
    rows.MixI64(w.dag);
    rows.MixI64(static_cast<int64_t>(w.outcome));
    rows.MixBool(w.degraded);
    rows.MixI64(w.arrival);
    rows.MixI64(w.end);
    rows.MixDouble(w.usd);
    rows.MixDouble(w.usd_network);
  }
  for (const BreakerTransition& b : r.breaker_transitions) {
    rows.MixI64(b.time);
    rows.MixI64(b.dag);
    rows.MixI64(b.hop);
    rows.MixBool(b.open);
  }
  const WorkflowCounters& c = r.counters;
  const auto n = [](int64_t v) { return std::to_string(v); };
  return {
      {"attempts", n(static_cast<int64_t>(r.attempts.size()))},
      {"workflows", n(static_cast<int64_t>(r.workflows.size()))},
      {"breaker_transitions", n(static_cast<int64_t>(r.breaker_transitions.size()))},
      {"rows", Hex(rows.value())},
      {"workflows_started", n(c.workflows_started)},
      {"workflows_succeeded", n(c.workflows_succeeded)},
      {"workflows_failed", n(c.workflows_failed)},
      {"degraded_successes", n(c.degraded_successes)},
      {"dispatched_attempts", n(c.dispatched_attempts)},
      {"client_retries", n(c.client_retries)},
      {"hedges", n(c.hedges)},
      {"hedge_wins", n(c.hedge_wins)},
      {"hedge_losers", n(c.hedge_losers)},
      {"provider_redrives", n(c.provider_redrives)},
      {"dead_letters", n(c.dead_letters)},
      {"upstream_skipped", n(c.upstream_skipped)},
      {"fail_fast", n(c.fail_fast)},
      {"circuit_open", n(c.circuit_open)},
      {"breaker_trips", n(c.breaker_trips)},
      {"cold_starts", n(c.cold_starts)},
      {"outage_killed", n(c.outage_killed)},
      {"stragglers", n(c.stragglers)},
      {"usd_attempts", Bits(r.usd_attempts)},
      {"usd_transitions", Bits(r.usd_transitions)},
      {"usd_dlq", Bits(r.usd_dlq)},
      {"usd_network", Bits(r.usd_network)},
      {"usd_network_detour", Bits(r.usd_network_detour)},
      {"net_transfers", n(r.net_transfers)},
      {"net_bytes", n(r.net_bytes)},
      {"usd_total", Bits(r.usd_total)},
      {"usd_useful", Bits(r.usd_useful)},
      {"usd_wasted", Bits(r.usd_wasted)},
      {"usd_hedge_losers", Bits(r.usd_hedge_losers)},
      {"usd_stragglers", Bits(r.usd_stragglers)},
      {"makespan", n(r.makespan)},
  };
}

struct Golden {
  Shape shape;
  uint64_t seed;
  const char* fields;  // Whitespace-separated name=value pairs.
};

// clang-format off
const Golden kGoldens[] = {
    {Shape::kFanOut, 7,
     "attempts=37876 workflows=3000 breaker_transitions=0 "
     "rows=0xe8136a11ef09c356 workflows_started=3000 workflows_succeeded=2414 "
     "workflows_failed=586 degraded_successes=2414 dispatched_attempts=32674 "
     "client_retries=2301 hedges=5813 hedge_wins=1678 "
     "hedge_losers=3760 provider_redrives=0 dead_letters=0 "
     "upstream_skipped=5202 fail_fast=0 circuit_open=0 "
     "breaker_trips=0 cold_starts=8735 outage_killed=19 "
     "stragglers=6888 usd_attempts=0x3fc39ab9a559bebe usd_transitions=0x3fea23a29c7799e0 "
     "usd_dlq=0x0000000000000000 usd_network=0x3fca862330f22897 usd_network_detour=0x3f1970a3d70a3d4f "
     "net_transfers=44464 net_bytes=2610079744 usd_total=0x3ff2d5ece90549db "
     "usd_useful=0x3fe72186f1f18b5c usd_wasted=0x3fdd14a5c03210b4 usd_hedge_losers=0x3f9b49502449004c "
     "usd_stragglers=0x3fa65defe3d97195 makespan=150326958 "},
    {Shape::kChainAsync, 7,
     "attempts=10350 workflows=2000 breaker_transitions=78 "
     "rows=0x6bacfaa6d5aa785b workflows_started=2000 workflows_succeeded=1612 "
     "workflows_failed=388 degraded_successes=0 dispatched_attempts=9364 "
     "client_retries=1404 hedges=0 hedge_wins=0 "
     "hedge_losers=0 provider_redrives=946 dead_letters=128 "
     "upstream_skipped=494 fail_fast=81 circuit_open=411 "
     "breaker_trips=39 cold_starts=2136 outage_killed=0 "
     "stragglers=0 usd_attempts=0x3faf9328c67a88fc usd_transitions=0x3fcdf6fd21ff2d59 "
     "usd_dlq=0x3f2421f5f40d837d usd_network=0x0000000000000000 usd_network_detour=0x0000000000000000 "
     "net_transfers=0 net_bytes=0 usd_total=0x3fd2f067e88d697c "
     "usd_useful=0x3fca2c0cee9d7596 usd_wasted=0x3fb76985c4fabac4 usd_hedge_losers=0x0000000000000000 "
     "usd_stragglers=0x0000000000000000 makespan=201491057 "},
    {Shape::kTieBreak, 7,
     "attempts=7400 workflows=1500 breaker_transitions=0 "
     "rows=0xdce3d00d741ba7e3 workflows_started=1500 workflows_succeeded=1405 "
     "workflows_failed=95 degraded_successes=703 dispatched_attempts=7305 "
     "client_retries=339 hedges=1061 hedge_wins=0 "
     "hedge_losers=1060 provider_redrives=0 dead_letters=0 "
     "upstream_skipped=95 fail_fast=0 circuit_open=0 "
     "breaker_trips=0 cold_starts=1579 outage_killed=5 "
     "stragglers=1030 usd_attempts=0x3faa47780cb57240 usd_transitions=0x3fc7604189374b72 "
     "usd_dlq=0x0000000000000000 usd_network=0x0000000000000000 usd_network_detour=0x0000000000000000 "
     "net_transfers=0 net_bytes=0 usd_total=0x3fcdf21f8c64a802 "
     "usd_useful=0x3fc445ba465179c6 usd_wasted=0x3fb358ca8c265c78 usd_hedge_losers=0x3f6d3d22ce2b2f4b "
     "usd_stragglers=0x3f80a77de03ec51b makespan=150600000 "},
    {Shape::kFanOut, 8,
     "attempts=37989 workflows=3000 breaker_transitions=0 "
     "rows=0x3c569dd6e0aeb938 workflows_started=3000 workflows_succeeded=2417 "
     "workflows_failed=583 degraded_successes=2417 dispatched_attempts=32805 "
     "client_retries=2309 hedges=5925 hedge_wins=1749 "
     "hedge_losers=3926 provider_redrives=0 dead_letters=0 "
     "upstream_skipped=5184 fail_fast=0 circuit_open=0 "
     "breaker_trips=0 cold_starts=8835 outage_killed=14 "
     "stragglers=6962 usd_attempts=0x3fc3acbb707f6d76 usd_transitions=0x3fea3e76c8b438d2 "
     "usd_dlq=0x0000000000000000 usd_network=0x3fca9f5fa7d25998 usd_network_detour=0x3f196eb851eb84fd "
     "net_transfers=44505 net_bytes=2612812800 usd_total=0x3ff2e8bec764554b "
     "usd_useful=0x3fe730486c6a3689 usd_wasted=0x3fdd426a44bce81a usd_hedge_losers=0x3f9c5e1eaba1f7fb "
     "usd_stragglers=0x3fa699f6e370b894 makespan=150696926 "},
    {Shape::kChainAsync, 8,
     "attempts=10364 workflows=2000 breaker_transitions=106 "
     "rows=0xb384dc765b583304 workflows_started=2000 workflows_succeeded=1611 "
     "workflows_failed=389 degraded_successes=0 dispatched_attempts=9247 "
     "client_retries=1471 hedges=0 hedge_wins=0 "
     "hedge_losers=0 provider_redrives=893 dead_letters=88 "
     "upstream_skipped=524 fail_fast=90 circuit_open=503 "
     "breaker_trips=53 cold_starts=2051 outage_killed=0 "
     "stragglers=0 usd_attempts=0x3faebee143058f0b usd_transitions=0x3fcd972474538e1f "
     "usd_dlq=0x3f1baeb22f9294cb usd_network=0x0000000000000000 usd_network_detour=0x0000000000000000 "
     "net_transfers=0 net_bytes=0 usd_total=0x3fd2a5294dad721a "
     "usd_useful=0x3fca0154906ee879 usd_wasted=0x3fb691fc15d7f776 usd_hedge_losers=0x0000000000000000 "
     "usd_stragglers=0x0000000000000000 makespan=201047046 "},
    {Shape::kTieBreak, 8,
     "attempts=7312 workflows=1500 breaker_transitions=0 "
     "rows=0x35c6520ba0a2b1f7 workflows_started=1500 workflows_succeeded=1406 "
     "workflows_failed=94 degraded_successes=703 dispatched_attempts=7218 "
     "client_retries=325 hedges=987 hedge_wins=0 "
     "hedge_losers=986 provider_redrives=0 dead_letters=0 "
     "upstream_skipped=94 fail_fast=0 circuit_open=0 "
     "breaker_trips=0 cold_starts=1492 outage_killed=5 "
     "stragglers=948 usd_attempts=0x3fa9c3374fea9508 usd_transitions=0x3fc718fc504816a2 "
     "usd_dlq=0x0000000000000000 usd_network=0x0000000000000000 usd_network_detour=0x0000000000000000 "
     "net_transfers=0 net_bytes=0 usd_total=0x3fcd89ca2442bbe4 "
     "usd_useful=0x3fc451d409dd4722 usd_wasted=0x3fb26fec34cae984 usd_hedge_losers=0x3f6b3296b714d969 "
     "usd_stragglers=0x3f7d4371cd78e039 makespan=150800000 "},
};
// clang-format on

void ExpectGolden(Shape shape, uint64_t seed, const WorkflowSimResult& r, const char* how) {
  const char* want = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.shape == shape && g.seed == seed) {
      want = g.fields;
    }
  }
  golden::ExpectFields("Shape::" + std::string(ShapeName(shape)) + ", " + std::to_string(seed),
                       want, Render(r), how);
}

constexpr Shape kShapes[] = {Shape::kFanOut, Shape::kChainAsync, Shape::kTieBreak};

WorkflowSimResult RunShape(Shape shape, uint64_t seed, Auditor* auditor = nullptr) {
  ShapeSetup setup(shape, seed);
  setup.cfg.auditor = auditor;
  return SimulateWorkflows(setup.cfg, MakeBillingModel(Platform::kAwsLambda), seed);
}

TEST(WorkflowGolden, EveryFieldMatchesAcrossShapesAndSeeds) {
  for (const uint64_t seed : {7ULL, 8ULL}) {
    for (const Shape shape : kShapes) {
      ExpectGolden(shape, seed, RunShape(shape, seed), "detached");
    }
  }
}

// The shapes exercise what they name: a golden of all zeros would pin
// nothing.
TEST(WorkflowGolden, ShapesExerciseTheirMechanisms) {
  const WorkflowSimResult fan = RunShape(Shape::kFanOut, 7);
  EXPECT_GT(fan.counters.degraded_successes, 0);
  EXPECT_GT(fan.counters.hedges, 0);
  EXPECT_GT(fan.counters.stragglers, 0);
  EXPECT_GT(fan.counters.outage_killed, 0);
  EXPECT_GT(fan.net_transfers, 0);
  EXPECT_GT(fan.usd_network_detour, 0.0);
  // Rows that end after their instance did: their events are handled once
  // the instance is done, the path that must not touch freed hop state.
  int64_t after_instance = 0;
  for (const HopAttempt& h : fan.attempts) {
    after_instance += h.attempt.end > fan.workflows[static_cast<size_t>(h.wf)].end ? 1 : 0;
  }
  EXPECT_GT(after_instance, 0);
  const WorkflowSimResult chain = RunShape(Shape::kChainAsync, 7);
  EXPECT_GT(chain.counters.provider_redrives, 0);
  EXPECT_GT(chain.counters.dead_letters, 0);
  EXPECT_GT(chain.counters.fail_fast, 0);
  EXPECT_GT(chain.counters.breaker_trips, 0);
  EXPECT_GT(chain.usd_dlq, 0.0);
  const WorkflowSimResult grid = RunShape(Shape::kTieBreak, 7);
  EXPECT_GT(grid.counters.hedges, 0);
  EXPECT_GT(grid.counters.client_retries, 0);
  EXPECT_GT(grid.counters.outage_killed, 0);
  // Completions land on the 100 ms arrival grid.
  int64_t on_grid = 0;
  for (const HopAttempt& h : grid.attempts) {
    on_grid += h.attempt.outcome == Outcome::kOk && h.attempt.end % (100 * kMs) == 0 ? 1 : 0;
  }
  EXPECT_GT(on_grid, grid.counters.workflows_started);
}

// A full in-run auditor scanning after every event raises nothing and
// leaves the result bit-identical to the detached run.
TEST(WorkflowGolden, AuditedEveryEventMatchesDetached) {
  Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/1);
  const WorkflowSimResult audited = RunShape(Shape::kFanOut, 7, &auditor);
  EXPECT_GT(auditor.scans_run(), 0);
  EXPECT_EQ(Render(audited), Render(RunShape(Shape::kFanOut, 7)));
  ExpectGolden(Shape::kFanOut, 7, audited, "audited");
}

// kFanOut's spans and time-series windows, with the span sink and the
// series attached; the result itself stays the detached golden.
// clang-format off
const Golden kFanOutObservedGoldens[] = {
    {Shape::kFanOut, 7,
     "spans=96376 span_digest=0x958d029458d67458 windows=16 "
     "window_digest=0xeae022bb6c6782e4 "},
    {Shape::kFanOut, 8,
     "spans=96638 span_digest=0xeb03e6392a244173 windows=16 "
     "window_digest=0x7aef0f04f78eb9b6 "},
};
// clang-format on

TEST(WorkflowGolden, FanOutSpansAndWindowsMatch) {
  for (const uint64_t seed : {7ULL, 8ULL}) {
    ShapeSetup setup(Shape::kFanOut, seed);
    SpanCollector spans;
    TimeSeries series(10 * kSec);
    setup.cfg.trace = &spans;
    setup.cfg.timeseries = &series;
    const WorkflowSimResult r =
        SimulateWorkflows(setup.cfg, MakeBillingModel(Platform::kAwsLambda), seed);
    ExpectGolden(Shape::kFanOut, seed, r, "observed");
    const char* want = nullptr;
    for (const Golden& g : kFanOutObservedGoldens) {
      if (g.seed == seed) {
        want = g.fields;
      }
    }
    golden::ExpectFields("Shape::kFanOut, " + std::to_string(seed), want,
                         {{"spans", std::to_string(spans.spans().size())},
                          {"span_digest", Hex(golden::SpanDigest(spans.spans()))},
                          {"windows", std::to_string(series.window_count())},
                          {"window_digest", Hex(golden::WindowDigest(series))}},
                         "observed");
  }
}

}  // namespace
}  // namespace faascost
