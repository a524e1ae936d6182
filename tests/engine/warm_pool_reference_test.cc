// A reference model of the warm-pool rule, written from its statement alone
// and sharing no code with either engine: one function's arrivals in order,
// keep-alive measured from each completion, and the idle sandbox freed last
// reused first. With faults off, the fleet engine must match it sandbox by
// sandbox and the workflow engine request by request, including the overlap
// regime where concurrent requests fan out to several sandboxes.

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/rng.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

constexpr MicroSecs kMs = kMicrosPerMilli;

struct RefSandbox {
  MicroSecs free_at = 0;
  MicroSecs idle = 0;
  MicroSecs destroyed_at = -1;  // -1 while the sandbox lives.
};

struct RefPool {
  std::vector<RefSandbox> sandboxes;  // In creation order.
  std::vector<bool> cold;             // Per request.
  int64_t cold_starts = 0;
};

// Serves `requests`, (arrival, execution) pairs in arrival order, from one
// function's pool. A sandbox idle for longer than `keepalive` is gone,
// having lingered `keepalive` past its last completion. Otherwise the idle
// sandbox freed last serves the request (the oldest on ties); with none
// idle, a new sandbox pays `init` first. `reuse_at_free` says whether a
// sandbox that frees at the arrival instant is idle yet. Sandboxes still
// alive at the end linger one window.
RefPool ReferencePool(const std::vector<std::pair<MicroSecs, MicroSecs>>& requests,
                      MicroSecs keepalive, MicroSecs init, bool reuse_at_free) {
  RefPool pool;
  const auto expire = [&](RefSandbox& sb) {
    sb.idle += keepalive;
    sb.destroyed_at = sb.free_at + keepalive;
  };
  for (const auto& [t, exec] : requests) {
    RefSandbox* pick = nullptr;
    for (RefSandbox& sb : pool.sandboxes) {
      if (sb.destroyed_at >= 0) {
        continue;
      }
      if (sb.free_at < t - keepalive) {
        expire(sb);
        continue;
      }
      const bool idle = reuse_at_free ? sb.free_at <= t : sb.free_at < t;
      if (idle && (pick == nullptr || sb.free_at > pick->free_at)) {
        pick = &sb;
      }
    }
    pool.cold.push_back(pick == nullptr);
    if (pick != nullptr) {
      pick->idle += t - pick->free_at;
      pick->free_at = t + exec;
    } else {
      ++pool.cold_starts;
      pool.sandboxes.push_back({t + init + exec});
    }
  }
  for (RefSandbox& sb : pool.sandboxes) {
    if (sb.destroyed_at < 0) {
      expire(sb);
    }
  }
  return pool;
}

// The fleet reuses a sandbox at the instant it frees: its pool records each
// sandbox's free time at dispatch. Arrivals are uniform over ten minutes
// with exponential executions of mean 3 s against a mean gap of 2 s, so
// requests overlap; even seeds put both on a 50 ms grid, which makes
// arrivals land exactly on free times.
TEST(WarmPoolReference, FleetMatchesSandboxBySandbox) {
  const MicroSecs keepalives[] = {0, 500 * kMs, 2'000 * kMs, 10'000 * kMs, 60'000 * kMs};
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const MicroSecs grid = seed % 2 == 0 ? 50 * kMs : 1;
    std::vector<std::pair<MicroSecs, MicroSecs>> requests;
    for (int i = 0; i < 300; ++i) {
      const MicroSecs arrival = rng.UniformInt(0, 600'000 * kMs) / grid * grid;
      const auto exec = static_cast<MicroSecs>(rng.Exponential(1.0 / (3'000 * kMs)));
      requests.emplace_back(arrival, std::max(grid, exec / grid * grid));
    }
    std::sort(requests.begin(), requests.end());
    std::vector<RequestRecord> trace;
    int overlaps = 0;
    for (const auto& [arrival, exec] : requests) {
      if (!trace.empty() && arrival < trace.back().arrival + trace.back().exec_duration) {
        ++overlaps;
      }
      RequestRecord r;
      r.arrival = arrival;
      r.exec_duration = exec;
      r.cpu_time = exec;
      r.alloc_vcpus = 1.0;
      r.alloc_mem_mb = 1769.0;
      r.used_mem_mb = 512.0;
      trace.push_back(r);
    }
    ASSERT_GT(overlaps, 0) << "seed " << seed;

    FleetSimConfig cfg;
    cfg.keepalive = keepalives[seed % std::size(keepalives)];
    cfg.use_trace_failure_rates = false;
    const FleetResult got = SimulateFleet(trace, MakeBillingModel(Platform::kAwsLambda), cfg);
    const RefPool want = ReferencePool(requests, cfg.keepalive, cfg.init_duration,
                                       /*reuse_at_free=*/true);
    EXPECT_EQ(got.cold_starts, want.cold_starts) << "seed " << seed;
    ASSERT_EQ(got.spans.size(), want.sandboxes.size()) << "seed " << seed;
    for (size_t i = 0; i < got.spans.size(); ++i) {
      EXPECT_EQ(got.spans[i].idle, want.sandboxes[i].idle) << "seed " << seed << " span " << i;
      EXPECT_EQ(got.spans[i].destroyed_at, want.sandboxes[i].destroyed_at)
          << "seed " << seed << " span " << i;
    }
  }
}

// The workflow engine pops an arrival before a completion at the same
// instant, so a sandbox is not idle at the instant it frees. Arrivals are
// evenly spaced and durations fixed (exec_cv and init_jitter 0), so the grid
// below makes arrivals land exactly on free times as well as between them.
TEST(WarmPoolReference, WorkflowMatchesRequestByRequest) {
  constexpr int kWorkflows = 300;
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (const MicroSecs spacing : {40 * kMs, 100 * kMs, 250 * kMs, 2'000 * kMs}) {
    for (const MicroSecs exec : {30 * kMs, 100 * kMs, 600 * kMs}) {
      for (const MicroSecs keepalive : {MicroSecs{0}, 100 * kMs, 1'000 * kMs, 60'000 * kMs}) {
        for (const MicroSecs init : {100 * kMs, 400 * kMs}) {
          HopSpec hop;
          hop.exec_mean = exec;
          hop.exec_cv = 0.0;
          WorkflowSimConfig cfg;
          cfg.dags.push_back(MakeChainDag("one_hop", 1, hop));
          cfg.workflows = kWorkflows;
          cfg.wps = static_cast<double>(kMicrosPerSec) / static_cast<double>(spacing);
          cfg.keepalive = keepalive;
          cfg.init_mean = init;
          cfg.init_jitter = 0.0;
          const WorkflowSimResult got = SimulateWorkflows(cfg, billing, 1);

          std::vector<std::pair<MicroSecs, MicroSecs>> requests;
          for (int i = 0; i < kWorkflows; ++i) {
            requests.emplace_back(i * spacing, exec);
          }
          const RefPool want = ReferencePool(requests, keepalive, init, /*reuse_at_free=*/false);
          const auto where = [&] {
            return ::testing::Message() << "spacing " << spacing << " exec " << exec
                                        << " keepalive " << keepalive << " init " << init;
          };
          EXPECT_EQ(got.counters.cold_starts, want.cold_starts) << where();
          ASSERT_EQ(got.attempts.size(), static_cast<size_t>(kWorkflows)) << where();
          for (const HopAttempt& row : got.attempts) {
            EXPECT_EQ(row.attempt.cold_start, want.cold[static_cast<size_t>(row.wf)])
                << where() << " wf " << row.wf;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace faascost
