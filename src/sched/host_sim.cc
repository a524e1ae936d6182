#include "src/sched/host_sim.h"

#include <algorithm>
#include <string>

#include "src/common/rng.h"
#include "src/common/validate.h"
#include "src/sched/profiler.h"

namespace faascost {

namespace {

// quota_fraction * period becomes an int64 pool; keeping it below this bound
// keeps that cast defined.
constexpr double kMaxPoolMicros = 9.0e18;
// An exponential phase draw is at most -ln(2^-53) ~ 36.7 means, and an off
// phase's mean at most 99 demand phases (the 1% demand floor), so phases
// drawn from a mean below this stay far inside int64.
constexpr MicroSecs kMaxDemandPhase = 1'000'000'000'000'000;  // ~32 years.

}  // namespace

std::vector<std::string> HostSimConfig::Validate(
    const std::vector<TenantSpec>& tenants) const {
  std::vector<std::string> errors;
  CheckAtLeast(&errors, "cores", cores, 1);
  if (CheckAbove(&errors, "tick", tick, 0) && (period <= 0 || period % tick != 0)) {
    errors.push_back("period must be a positive multiple of tick " + std::to_string(tick) +
                     ", got " + std::to_string(period));
  }
  CheckAbove(&errors, "duration", duration, 0);
  CheckWithin(&errors, "demand_phase", demand_phase, 0, kMaxDemandPhase, Ends::kOpenLow,
              "us");
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantSpec& t = tenants[i];
    std::vector<std::string> tenant;
    if (CheckWithin(&tenant, "quota_fraction", t.quota_fraction, 0.0, kInf, Ends::kOpenHigh) &&
        t.quota_fraction * static_cast<double>(period) >= kMaxPoolMicros) {
      tenant.push_back("quota_fraction * period must be below 9e18 us");
    }
    CheckWithin(&tenant, "weight", t.weight, 0.0, kInf, Ends::kOpen);
    CheckWithin(&tenant, "demand_fraction", t.demand_fraction, 0.0, 1.0);
    AppendErrors(&errors, tenant, "tenants[", i, "].");
  }
  return errors;
}

HostSimResult SimulateHost(const HostSimConfig& config,
                           const std::vector<TenantSpec>& tenants, uint64_t seed) {
  ThrowIfInvalid("HostSimConfig", config.Validate(tenants));

  struct TenantState {
    double vruntime = 0.0;
    double vruntime_per_tick = 0.0;  // tick / weight.
    // Ticks run in uncontended steps whose vruntime adds are still owed.
    // Only a contended tick compares vruntimes; it first replays these adds
    // one at a time, so the sum rounds exactly as one add per tick does.
    int64_t unreplayed_ticks = 0;
    int64_t pool = 0;      // Remaining cgroup runtime this period.
    bool on_phase = true;  // Whether the task currently wants CPU.
    bool ran = false;      // Held a core during the current step.
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
    state[i].vruntime_per_tick =
        static_cast<double>(config.tick) / std::max(tenants[i].weight, 1e-6);
  }

  const size_t cores = static_cast<size_t>(config.cores);
  // The first tick at or past the end of the run.
  const MicroSecs end = ((config.duration - 1) / config.tick + 1) * config.tick;
  MicroSecs next_refill = config.period;
  int64_t busy_core_ticks = 0;
  bool replay_due = false;  // Some tenant has unreplayed ticks.
  std::vector<size_t> runnable;
  runnable.reserve(n);

  Auditor* const auditor = config.auditor;
  // Each step processes the tick at `now` in full, then repeats it for as
  // long as it stays the same, up to the next scheduling change.
  for (MicroSecs now = 0; now < config.duration;) {
    // Quota refills at period boundaries.
    if (now == next_refill) {
      next_refill += config.period;
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
    // Demand phase flips (RNG draws in tenant order), then collect the
    // runnable (wants CPU, quota left) tenants in index order.
    runnable.clear();
    MicroSecs next_flip = kUnlimitedDemand;
    for (size_t i = 0; i < n; ++i) {
      TenantState& s = state[i];
      if (now >= s.next_flip && tenants[i].demand_fraction < 1.0) {
        s.on_phase = !s.on_phase;
        s.next_flip = now + phase_length(tenants[i], s.on_phase);
      }
      next_flip = std::min(next_flip, s.next_flip);
      if (s.on_phase && s.pool > 0) {
        runnable.push_back(i);
      }
    }

    // Fair-share dispatch: the `cores` lowest weighted vruntimes run. With
    // no more runnable tenants than cores, every one of them runs and no
    // vruntime is compared.
    const bool contended = runnable.size() > cores;
    int64_t ticks = 1;
    if (contended) {
      if (replay_due) {
        for (TenantState& s : state) {
          for (; s.unreplayed_ticks > 0; --s.unreplayed_ticks) {
            s.vruntime += s.vruntime_per_tick;
          }
        }
        replay_due = false;
      }
      std::sort(runnable.begin(), runnable.end(), [&](size_t a, size_t b) {
        return state[a].vruntime < state[b].vruntime;
      });
    } else {
      // Uncontended, this tick repeats until the next refill, the first
      // demand flip (on the tick grid) or the first tick a running tenant's
      // pool is spent, whichever comes first. A pool lasts
      // ceil(pool / tick) ticks: the tick that spends it still runs.
      MicroSecs next = std::min(end, next_refill);
      if (next_flip < next) {
        next = ((next_flip - 1) / config.tick + 1) * config.tick;
      }
      MicroSecs room = next - now;
      for (const size_t i : runnable) {
        room = std::min(room, state[i].pool);
      }
      ticks = (room - 1) / config.tick + 1;
    }
    const size_t running = std::min(runnable.size(), cores);
    busy_core_ticks += ticks * static_cast<int64_t>(running);
    if (auditor != nullptr && auditor->basic()) {
      auditor->CheckLazy(running <= cores, "host.dispatch_width", now, seed,
                         [] { return "host"; },
                         [&] {
                           return std::to_string(running) + " tasks on " +
                                  std::to_string(config.cores) + " cores";
                         });
    }

    const MicroSecs step = ticks * config.tick;
    for (size_t k = 0; k < running; ++k) {
      TenantState& s = state[runnable[k]];
      s.ran = true;
      if (contended) {
        s.vruntime += s.vruntime_per_tick;
      } else {
        s.unreplayed_ticks += ticks;
      }
      s.pool -= step;
      result.tenants[runnable[k]].cpu_obtained += step;
    }
    replay_due = replay_due || (!contended && running > 0);

    // Gap bookkeeping from the tenant's (user-space) point of view.
    for (size_t i = 0; i < n; ++i) {
      TenantState& s = state[i];
      TenantResult& tr = result.tenants[i];
      const bool ran = s.ran;
      s.ran = false;
      if (!s.on_phase) {
        s.gap_start = -1;  // Voluntary sleep: not an observed gap.
        continue;
      }
      tr.runnable_time += step;
      if (!ran) {
        if (s.gap_start < 0) {
          s.gap_start = now;
          s.gap_throttled = false;
        }
        if (s.pool <= 0) {
          s.gap_throttled = true;
          tr.throttled_ticks += ticks;
        } else {
          tr.preempted_ticks += ticks;
        }
      } else if (s.gap_start >= 0) {
        const MicroSecs dur = now - s.gap_start;
        if (dur > kThrottleDetectThreshold) {
          tr.gaps.push_back({s.gap_start, dur});
          if (config.trace != nullptr) {
            Span sp;
            sp.kind = s.gap_throttled ? SpanKind::kThrottle : SpanKind::kPreempt;
            sp.group = kTrackGroupTenant;
            sp.track = static_cast<int64_t>(i);
            sp.start = s.gap_start;
            sp.duration = dur;
            config.trace->Record(sp);
          }
        }
        s.gap_start = -1;
      }
    }
    now += step;
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
