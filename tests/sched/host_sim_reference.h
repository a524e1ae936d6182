// The per-tick host scheduler that SimulateHost replaced, kept verbatim as
// the oracle of host_sim_differential_test: every tick sorts the runnable
// tenants by vruntime, dispatches the lowest `cores` of them and does the
// gap bookkeeping, whether or not anything changed since the last tick.

#ifndef FAASCOST_TESTS_SCHED_HOST_SIM_REFERENCE_H_
#define FAASCOST_TESTS_SCHED_HOST_SIM_REFERENCE_H_

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/host_sim.h"
#include "src/sched/profiler.h"

namespace faascost {

inline HostSimResult ReferenceSimulateHost(const HostSimConfig& config,
                                           const std::vector<TenantSpec>& tenants,
                                           uint64_t seed) {
  assert(config.cores >= 1);
  assert(config.tick > 0);
  assert(config.period % config.tick == 0);

  struct TenantState {
    double vruntime = 0.0;
    int64_t pool = 0;      // Remaining cgroup runtime this period.
    bool on_phase = true;  // Whether the task currently wants CPU.
    MicroSecs next_flip = 0;
    MicroSecs gap_start = -1;  // Start of the current runnable-but-off-CPU gap.
    bool gap_throttled = false;  // Any tick of the current gap hit quota.
  };

  Rng rng(seed);
  const size_t n = tenants.size();
  std::vector<TenantState> state(n);
  HostSimResult result;
  result.tenants.resize(n);

  auto phase_length = [&](const TenantSpec& spec, bool on) {
    // Exponential on/off phases sized so the long-run on-fraction matches
    // demand_fraction.
    const double mean_on = static_cast<double>(config.demand_phase);
    const double f = std::clamp(spec.demand_fraction, 0.01, 1.0);
    const double mean = on ? mean_on : mean_on * (1.0 - f) / f;
    return std::max<MicroSecs>(config.tick,
                               static_cast<MicroSecs>(rng.Exponential(1.0 / mean)));
  };

  for (size_t i = 0; i < n; ++i) {
    state[i].pool = static_cast<int64_t>(tenants[i].quota_fraction *
                                         static_cast<double>(config.period));
    if (tenants[i].demand_fraction < 1.0) {
      state[i].on_phase = rng.Bernoulli(tenants[i].demand_fraction);
      state[i].next_flip = phase_length(tenants[i], state[i].on_phase);
    } else {
      state[i].next_flip = kUnlimitedDemand;
    }
    // Small random vruntime offsets break ties deterministically.
    state[i].vruntime = rng.Uniform(0.0, 1.0);
  }

  int64_t busy_core_ticks = 0;
  std::vector<size_t> runnable;
  runnable.reserve(n);
  std::vector<bool> ran(n);  // Reset every tick; allocated once.

  Auditor* const auditor = config.auditor;
  for (MicroSecs now = 0; now < config.duration; now += config.tick) {
    // Quota refills at period boundaries.
    if (now % config.period == 0 && now > 0) {
      for (size_t i = 0; i < n; ++i) {
        state[i].pool = static_cast<int64_t>(tenants[i].quota_fraction *
                                             static_cast<double>(config.period));
      }
      if (auditor != nullptr && auditor->full()) {
        // Core-time conservation at every refill boundary: the CPU handed to
        // tenants is exactly the busy core time, and each tenant's runnable
        // time partitions into obtained + throttled + preempted ticks.
        auditor->NoteScan();
        MicroSecs obtained = 0;
        for (size_t i = 0; i < n; ++i) {
          const TenantResult& tr = result.tenants[i];
          obtained += tr.cpu_obtained;
          const MicroSecs gap_ticks =
              (tr.throttled_ticks + tr.preempted_ticks) * config.tick;
          auditor->CheckLazy(tr.runnable_time == tr.cpu_obtained + gap_ticks,
                             "host.tenant_time_accounting", now, seed,
                             [&] { return "tenant " + std::to_string(i); },
                             [&] {
                               return "runnable=" + std::to_string(tr.runnable_time) +
                                      " obtained=" + std::to_string(tr.cpu_obtained) +
                                      " gaps=" + std::to_string(gap_ticks);
                             });
        }
        auditor->CheckLazy(obtained == busy_core_ticks * config.tick,
                           "host.core_conservation", now, seed,
                           [] { return "host"; },
                           [&] {
                             return "tenant_cpu=" + std::to_string(obtained) +
                                    " busy_core_time=" +
                                    std::to_string(busy_core_ticks * config.tick);
                           });
      }
    }
    // Demand phase flips.
    for (size_t i = 0; i < n; ++i) {
      if (now >= state[i].next_flip && tenants[i].demand_fraction < 1.0) {
        state[i].on_phase = !state[i].on_phase;
        state[i].next_flip = now + phase_length(tenants[i], state[i].on_phase);
      }
    }

    // Collect runnable (wants CPU, quota left) tenants.
    runnable.clear();
    for (size_t i = 0; i < n; ++i) {
      if (state[i].on_phase && state[i].pool > 0) {
        runnable.push_back(i);
      }
    }
    // Fair-share dispatch: the `cores` lowest weighted vruntimes run.
    std::sort(runnable.begin(), runnable.end(), [&](size_t a, size_t b) {
      return state[a].vruntime < state[b].vruntime;
    });
    const size_t running = std::min<size_t>(runnable.size(),
                                            static_cast<size_t>(config.cores));
    busy_core_ticks += static_cast<int64_t>(running);
    if (auditor != nullptr && auditor->basic()) {
      auditor->CheckLazy(running <= static_cast<size_t>(config.cores),
                         "host.dispatch_width", now, seed,
                         [] { return "host"; },
                         [&] {
                           return std::to_string(running) + " tasks on " +
                                  std::to_string(config.cores) + " cores";
                         });
    }

    std::fill(ran.begin(), ran.end(), false);
    for (size_t k = 0; k < running; ++k) {
      const size_t i = runnable[k];
      ran[i] = true;
      result.tenants[i].cpu_obtained += config.tick;
      state[i].vruntime +=
          static_cast<double>(config.tick) / std::max(tenants[i].weight, 1e-6);
      state[i].pool -= config.tick;
    }

    // Gap bookkeeping from the tenant's (user-space) point of view.
    for (size_t i = 0; i < n; ++i) {
      TenantResult& tr = result.tenants[i];
      if (state[i].on_phase) {
        tr.runnable_time += config.tick;
      }
      const bool wanted = state[i].on_phase;
      if (wanted && !ran[i]) {
        if (state[i].gap_start < 0) {
          state[i].gap_start = now;
          state[i].gap_throttled = false;
        }
        if (state[i].pool <= 0) {
          state[i].gap_throttled = true;
          ++tr.throttled_ticks;
        } else {
          ++tr.preempted_ticks;
        }
      } else if (state[i].gap_start >= 0 && ran[i]) {
        const MicroSecs dur = now - state[i].gap_start;
        if (dur > kThrottleDetectThreshold) {
          tr.gaps.push_back({state[i].gap_start, dur});
          if (config.trace != nullptr) {
            Span sp;
            sp.kind = state[i].gap_throttled ? SpanKind::kThrottle : SpanKind::kPreempt;
            sp.group = kTrackGroupTenant;
            sp.track = static_cast<int64_t>(i);
            sp.start = state[i].gap_start;
            sp.duration = dur;
            config.trace->Record(sp);
          }
        }
        state[i].gap_start = -1;
      } else if (!wanted) {
        state[i].gap_start = -1;  // Voluntary sleep: not an observed gap.
      }
    }
  }

  for (auto& tr : result.tenants) {
    tr.cpu_share =
        static_cast<double>(tr.cpu_obtained) / static_cast<double>(config.duration);
  }
  result.host_utilization =
      static_cast<double>(busy_core_ticks) * static_cast<double>(config.tick) /
      (static_cast<double>(config.cores) * static_cast<double>(config.duration));
  return result;
}

}  // namespace faascost

#endif  // FAASCOST_TESTS_SCHED_HOST_SIM_REFERENCE_H_
