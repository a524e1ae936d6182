// Differential test of the stepped host scheduler: SimulateHost must match
// the per-tick reference loop (host_sim_reference.h) bit for bit, in every
// result field, gap and span, over a grid of tenant counts, core counts,
// quotas, demand mixes, weights and seeds, with the auditor off and on.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sched/host_sim.h"
#include "tests/sched/host_sim_reference.h"

namespace faascost {
namespace {

constexpr MicroSecs kMs = kMicrosPerMilli;
constexpr uint64_t kSeeds = 20;
constexpr size_t kMaxReported = 5;

class VectorSink final : public TraceSink {
 public:
  void Record(const Span& span) override { spans.push_back(span); }
  std::vector<Span> spans;
};

struct HostRun {
  HostSimResult result;
  std::vector<Span> spans;
  int64_t checks = 0;
  int64_t scans = 0;
};

template <typename Simulate>
HostRun RunHost(Simulate simulate, HostSimConfig config, const std::vector<TenantSpec>& tenants,
            uint64_t seed, AuditLevel level) {
  HostRun run;
  VectorSink sink;
  Auditor auditor(level);
  config.trace = &sink;
  config.auditor = level == AuditLevel::kOff ? nullptr : &auditor;
  run.result = simulate(config, tenants, seed);
  run.spans = std::move(sink.spans);
  run.checks = auditor.checks_run();
  run.scans = auditor.scans_run();
  return run;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The first field in which `got` differs from `want`, or "" when none does.
std::string FirstDifference(const HostRun& want, const HostRun& got) {
  const auto differs = [](const std::string& what, auto a, auto b) {
    return what + ": want " + std::to_string(a) + ", got " + std::to_string(b);
  };
  if (Bits(want.result.host_utilization) != Bits(got.result.host_utilization)) {
    return differs("host_utilization", want.result.host_utilization,
                   got.result.host_utilization);
  }
  if (want.result.tenants.size() != got.result.tenants.size()) {
    return differs("tenants", want.result.tenants.size(), got.result.tenants.size());
  }
  for (size_t i = 0; i < want.result.tenants.size(); ++i) {
    const TenantResult& w = want.result.tenants[i];
    const TenantResult& g = got.result.tenants[i];
    const std::string t = "tenant " + std::to_string(i) + " ";
    if (w.cpu_obtained != g.cpu_obtained) {
      return differs(t + "cpu_obtained", w.cpu_obtained, g.cpu_obtained);
    }
    if (w.runnable_time != g.runnable_time) {
      return differs(t + "runnable_time", w.runnable_time, g.runnable_time);
    }
    if (Bits(w.cpu_share) != Bits(g.cpu_share)) {
      return differs(t + "cpu_share", w.cpu_share, g.cpu_share);
    }
    if (w.throttled_ticks != g.throttled_ticks) {
      return differs(t + "throttled_ticks", w.throttled_ticks, g.throttled_ticks);
    }
    if (w.preempted_ticks != g.preempted_ticks) {
      return differs(t + "preempted_ticks", w.preempted_ticks, g.preempted_ticks);
    }
    if (w.gaps.size() != g.gaps.size()) {
      return differs(t + "gaps", w.gaps.size(), g.gaps.size());
    }
    for (size_t k = 0; k < w.gaps.size(); ++k) {
      const auto gap = [](const SuspensionEvent& e) {
        return std::to_string(e.start) + "+" + std::to_string(e.duration);
      };
      if (w.gaps[k].start != g.gaps[k].start || w.gaps[k].duration != g.gaps[k].duration) {
        return t + "gap " + std::to_string(k) + ": want " + gap(w.gaps[k]) + ", got " +
               gap(g.gaps[k]);
      }
    }
  }
  if (want.spans.size() != got.spans.size()) {
    return differs("spans", want.spans.size(), got.spans.size());
  }
  for (size_t k = 0; k < want.spans.size(); ++k) {
    const Span& w = want.spans[k];
    const Span& g = got.spans[k];
    if (w.kind != g.kind || w.group != g.group || w.track != g.track || w.start != g.start ||
        w.duration != g.duration || w.req_idx != g.req_idx || w.attempt != g.attempt ||
        w.sandbox_id != g.sandbox_id || w.cold != g.cold || w.terminal != g.terminal ||
        w.ref != g.ref || std::string(w.status) != g.status ||
        w.billed_micros != g.billed_micros || Bits(w.billed_usd) != Bits(g.billed_usd)) {
      return differs("span " + std::to_string(k) + " start", w.start, g.start);
    }
  }
  if (want.scans != got.scans) {
    return differs("audit scans", want.scans, got.scans);
  }
  // Basic checks run once per step instead of once per tick.
  if (got.checks > want.checks) {
    return differs("audit checks (at most)", want.checks, got.checks);
  }
  return "";
}

struct Case {
  std::string label;
  HostSimConfig config;
  std::vector<TenantSpec> tenants;
};

// Tenant 0 always wants CPU; the others alternate between 70% and 40% duty
// cycles. Weights cycle through 1, 2 and 3, so tick / weight is inexact.
std::vector<TenantSpec> Tenants(size_t count, double quota) {
  std::vector<TenantSpec> tenants(count);
  for (size_t i = 0; i < count; ++i) {
    tenants[i].quota_fraction = quota;
    tenants[i].weight = 1.0 + static_cast<double>(i % 3);
    tenants[i].demand_fraction = i == 0 ? 1.0 : (i % 2 == 1 ? 0.7 : 0.4);
  }
  return tenants;
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const size_t tenants : {1, 2, 4, 6, 8, 17}) {
    for (const int cores : {1, 2, 4}) {
      for (const double quota : {0.3, 0.333, 0.5, 1.0}) {
        Case c;
        c.label = std::to_string(tenants) + " tenants, " + std::to_string(cores) +
                  " cores, quota " + std::to_string(quota);
        c.config.cores = cores;
        c.config.duration = 1'000 * kMs;
        c.tenants = Tenants(tenants, quota);
        cases.push_back(c);
      }
    }
  }
  // Equal weights of 3e-6 add an inexact ~3.3e8 to a vruntime per tick.
  // After 20 s a vruntime's last-place unit rivals the gaps between the
  // tie-breaking offsets, so rounding decides who runs: only adds replayed
  // one at a time, in order, keep these runs identical.
  for (const int cores : {2, 4}) {
    Case c;
    c.label = "8 tenants of weight 3e-6, " + std::to_string(cores) + " cores";
    c.config.cores = cores;
    c.config.duration = 20'000 * kMs;
    c.tenants = Tenants(8, 0.5);
    for (TenantSpec& t : c.tenants) {
      t.weight = 3e-6;
    }
    cases.push_back(c);
  }
  // A run that ends between two ticks: its last tick still counts in full.
  Case ragged;
  ragged.label = "duration 1234.567 ms";
  ragged.config.cores = 2;
  ragged.config.duration = 1'234'567;
  ragged.tenants = Tenants(4, 0.333);
  cases.push_back(ragged);
  // A 20 ms period at 250 Hz (4 ms ticks), with a shorter demand phase.
  Case hz250;
  hz250.label = "period 20 ms, tick 4 ms";
  hz250.config.cores = 2;
  hz250.config.period = 20 * kMs;
  hz250.config.tick = 4 * kMs;
  hz250.config.duration = 2'000 * kMs;
  hz250.config.demand_phase = 30 * kMs;
  hz250.tenants = Tenants(5, 0.3);
  cases.push_back(hz250);
  return cases;
}

TEST(HostSimDifferential, SteppedMatchesPerTickReference) {
  size_t runs = 0;
  std::vector<std::string> mismatches;
  for (const Case& c : Cases()) {
    for (const AuditLevel level : {AuditLevel::kOff, AuditLevel::kBasic, AuditLevel::kFull}) {
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const HostRun want = RunHost(ReferenceSimulateHost, c.config, c.tenants, seed, level);
        const HostRun got = RunHost(SimulateHost, c.config, c.tenants, seed, level);
        const std::string diff = FirstDifference(want, got);
        if (!diff.empty()) {
          mismatches.push_back(c.label + ", audit " + AuditLevelName(level) + ", seed " +
                               std::to_string(seed) + ": " + diff);
        }
        ++runs;
      }
    }
  }
  std::string first;
  for (size_t k = 0; k < mismatches.size() && k < kMaxReported; ++k) {
    first += "\n  " + mismatches[k];
  }
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " of " << runs << " runs differ; first:" << first;
}

// The stepped loop pays per scheduling change: an uncontended host checks
// dispatch width once per step, far fewer times than once per tick.
TEST(HostSimDifferential, UncontendedHostStepsOverUnchangedTicks) {
  HostSimConfig config;
  config.cores = 4;
  config.duration = 10'000 * kMs;
  const std::vector<TenantSpec> tenants = Tenants(4, 0.5);
  const HostRun want = RunHost(ReferenceSimulateHost, config, tenants, 7, AuditLevel::kBasic);
  const HostRun got = RunHost(SimulateHost, config, tenants, 7, AuditLevel::kBasic);
  EXPECT_EQ(FirstDifference(want, got), "");
  EXPECT_EQ(want.checks, 10'000);
  EXPECT_LT(got.checks, want.checks / 4);
}

}  // namespace
}  // namespace faascost
