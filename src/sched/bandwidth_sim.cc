#include "src/sched/bandwidth_sim.h"

#include <algorithm>

#include "src/common/validate.h"

namespace faascost {

namespace {

// Merges two sorted suspension lists into one sorted list.
std::vector<SuspensionEvent> MergeSorted(const std::vector<SuspensionEvent>& a,
                                         const std::vector<SuspensionEvent>& b) {
  std::vector<SuspensionEvent> out;
  out.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].start <= b[j].start)) {
      out.push_back(a[i++]);
    } else {
      out.push_back(b[j++]);
    }
  }
  return out;
}

MicroSecs CeilDiv(MicroSecs value, MicroSecs divisor) {
  return (value + divisor - 1) / divisor;
}

}  // namespace

CpuBandwidthSim::CpuBandwidthSim(SchedConfig config) : config_(std::move(config)) {
  ThrowIfInvalid("SchedConfig", config_.Validate());
}

TaskRunResult CpuBandwidthSim::Run(MicroSecs cpu_demand, MicroSecs wall_limit,
                                   MicroSecs tick_phase, MicroSecs refill_phase,
                                   Rng* rng) const {
  return RunImpl(IoPattern{}, cpu_demand, wall_limit, tick_phase, refill_phase, rng);
}

TaskRunResult CpuBandwidthSim::RunIoBound(const IoPattern& io, MicroSecs cpu_demand,
                                          MicroSecs wall_limit, MicroSecs tick_phase,
                                          MicroSecs refill_phase, Rng* rng) const {
  return RunImpl(io, cpu_demand, wall_limit, tick_phase, refill_phase, rng);
}

TaskRunResult CpuBandwidthSim::RunImpl(const IoPattern& io, MicroSecs cpu_demand,
                                       MicroSecs wall_limit, MicroSecs tick_phase,
                                       MicroSecs refill_phase, Rng* rng) const {
  TaskRunResult result;
  std::vector<SuspensionEvent> noise_gaps;

  const MicroSecs account_interval =
      config_.scheduler == SchedulerKind::kEevdf ? std::max<MicroSecs>(1, config_.tick / 2)
                                                 : config_.tick;
  const int64_t threads = config_.num_threads;
  const bool io_enabled = io.cpu_burst > 0 && io.io_wait > 0;

  MicroSecs now = 0;
  MicroSecs remaining = cpu_demand;
  MicroSecs obtained = 0;
  int64_t global_pool = config_.quota;
  int64_t local_pool = 0;  // Aggregate across threads; can go negative.
  MicroSecs unaccounted = 0;
  MicroSecs burst_remaining = io.cpu_burst;

  bool throttled = false;
  bool unthrottle_pending = false;
  MicroSecs throttle_start = 0;

  bool in_io = false;
  MicroSecs io_end = 0;

  const bool noise_enabled = config_.noise_mean_gap > 0 && rng != nullptr;
  bool in_noise = false;
  MicroSecs noise_end = 0;
  MicroSecs next_noise = noise_enabled
                             ? now + static_cast<MicroSecs>(rng->Exponential(
                                         1.0 / static_cast<double>(config_.noise_mean_gap)))
                             : kUnlimitedDemand;

  MicroSecs next_account = tick_phase > 0 ? tick_phase % account_interval : account_interval;
  if (next_account == 0) {
    next_account = account_interval;
  }
  MicroSecs next_refill = refill_phase > 0 ? refill_phase : config_.period;

  auto running = [&] { return !throttled && !in_noise && !in_io && remaining > 0; };

  auto account = [&] {
    if (unaccounted > 0) {
      local_pool -= unaccounted;
      unaccounted = 0;
    }
  };

  // At an accounting point with the task runnable: acquire slices if the
  // local pools ran dry; throttle if the global pool cannot cover them.
  auto acquire_or_throttle = [&] {
    if (throttled || remaining <= 0) {
      return;
    }
    if (local_pool <= 0) {
      const int64_t grant = std::min<int64_t>(config_.slice * threads, global_pool);
      local_pool += grant;
      global_pool -= grant;
      if (local_pool <= 0) {
        throttled = true;
        throttle_start = now;
      }
    }
  };

  auto consume = [&](MicroSecs dt) {
    const MicroSecs used = std::min<MicroSecs>(remaining, dt * threads);
    remaining -= used;
    obtained += used;
    unaccounted += used;
    burst_remaining -= used;
  };

  while (now < wall_limit && remaining > 0) {
    MicroSecs next_event = std::min({next_account, next_refill, wall_limit});
    if (noise_enabled) {
      next_event = std::min(next_event, in_noise ? noise_end : next_noise);
    }
    if (in_io) {
      next_event = std::min(next_event, io_end);
    }

    if (running()) {
      // The task may finish, or hit an I/O boundary, before the next event.
      const MicroSecs t_complete = now + CeilDiv(remaining, threads);
      const MicroSecs t_burst =
          io_enabled ? now + CeilDiv(std::max<MicroSecs>(burst_remaining, 1), threads)
                     : kUnlimitedDemand;
      const MicroSecs soft = std::min(t_complete, t_burst);
      if (soft <= next_event) {
        consume(soft - now);
        now = soft;
        if (remaining <= 0) {
          break;
        }
        if (io_enabled && burst_remaining <= 0) {
          // Blocking on I/O: a voluntary context switch accounts runtime.
          account();
          in_io = true;
          io_end = now + io.io_wait;
          result.io_blocked += io.io_wait;
          burst_remaining = io.cpu_burst;
        }
        continue;
      }
      consume(next_event - now);
    }
    now = next_event;

    if (noise_enabled && in_noise && now == noise_end) {
      in_noise = false;
    }

    if (in_io && now == io_end) {
      // Waking after I/O: the accumulated debt may throttle the wakeup
      // (paper §4.2: overruns and throttling may occur when the task
      // resumes, though less often than for CPU-bound tasks).
      in_io = false;
      acquire_or_throttle();
    }

    if (now == next_refill) {
      // hrtimer callback: the interrupt also drives runtime accounting.
      account();
      // Unused quota accumulates up to the burst allowance (cfs_burst).
      global_pool =
          std::min<int64_t>(std::max<int64_t>(global_pool, 0) + config_.quota,
                            config_.quota + config_.burst);
      if (throttled) {
        // distribute_cfs_runtime: bring the throttled queue's runtime to +1us
        // if the refill can cover the debt.
        if (local_pool <= 0) {
          const int64_t needed = 1 - local_pool;
          const int64_t grant = std::min<int64_t>(needed, global_pool);
          local_pool += grant;
          global_pool -= grant;
        }
        if (local_pool > 0) {
          // The unthrottled task is dispatched at the next scheduling point:
          // when the refill lands on the tick grid it resumes immediately,
          // otherwise it waits for the next tick (on busy co-tenant hosts the
          // CPU is occupied until the scheduler runs).
          const bool on_grid = (next_account - now) % account_interval == 0;
          if (on_grid) {
            throttled = false;
            result.throttles.push_back({throttle_start, now - throttle_start});
          } else {
            unthrottle_pending = true;
          }
        }
      } else {
        acquire_or_throttle();
      }
      next_refill += config_.period;
    }

    if (now == next_account) {
      if (unthrottle_pending) {
        unthrottle_pending = false;
        throttled = false;
        result.throttles.push_back({throttle_start, now - throttle_start});
      }
      account();
      acquire_or_throttle();
      next_account += account_interval;
    }

    if (noise_enabled && !in_noise && now == next_noise) {
      if (!throttled && !in_io && remaining > 0) {
        // Preemption by a co-tenant: a voluntary context switch accounts the
        // consumed runtime first.
        account();
        acquire_or_throttle();
        if (!throttled) {
          in_noise = true;
          const MicroSecs dur = static_cast<MicroSecs>(
              rng->Uniform(static_cast<double>(config_.noise_min),
                           static_cast<double>(config_.noise_max)));
          noise_end = now + std::max<MicroSecs>(1, dur);
          noise_gaps.push_back({now, noise_end - now});
        }
      }
      next_noise = now + std::max<MicroSecs>(
                             1, static_cast<MicroSecs>(rng->Exponential(
                                    1.0 / static_cast<double>(config_.noise_mean_gap))));
    }
  }

  if (throttled) {
    result.throttles.push_back({throttle_start, now - throttle_start});
  }

  result.wall_duration = now;
  result.cpu_obtained = obtained;
  result.completed = remaining <= 0;
  result.gaps = MergeSorted(result.throttles, noise_gaps);
  return result;
}

TaskRunResult CpuBandwidthSim::RunWithRandomPhase(MicroSecs cpu_demand, MicroSecs wall_limit,
                                                  Rng& rng) const {
  // Both the tick grid and the bandwidth hrtimer derive from the same clock
  // base, so refill expirations land on the tick grid; the paper's profiles
  // show tick-quantized runtime bursts. Randomize the shared offset and the
  // number of ticks between task start and the first refill.
  const MicroSecs tick_phase = rng.UniformInt(0, config_.tick - 1);
  const MicroSecs ticks_per_period = std::max<MicroSecs>(1, config_.period / config_.tick);
  MicroSecs refill_phase =
      (tick_phase + rng.UniformInt(0, ticks_per_period - 1) * config_.tick) %
      config_.period;
  if (refill_phase == 0) {
    refill_phase = config_.period;
  }
  return RunImpl(IoPattern{}, cpu_demand, wall_limit, tick_phase, refill_phase, &rng);
}

void EmitTaskRunSpans(const TaskRunResult& result, MicroSecs start_time, int64_t track,
                      TraceSink* sink) {
  if (sink == nullptr) {
    return;
  }
  Span exec;
  exec.kind = SpanKind::kExec;
  exec.group = kTrackGroupTenant;
  exec.track = track;
  exec.start = start_time;
  exec.duration = result.wall_duration;
  exec.status = result.completed ? "ok" : "cutoff";
  sink->Record(exec);
  for (const SuspensionEvent& t : result.throttles) {
    Span sp;
    sp.kind = SpanKind::kThrottle;
    sp.group = kTrackGroupTenant;
    sp.track = track;
    sp.start = start_time + t.start;
    sp.duration = t.duration;
    sink->Record(sp);
  }
  // Gaps that exactly match a throttle are already covered above; the rest
  // are co-tenant preemptions.
  size_t ti = 0;
  for (const SuspensionEvent& g : result.gaps) {
    while (ti < result.throttles.size() && result.throttles[ti].start < g.start) {
      ++ti;
    }
    if (ti < result.throttles.size() && result.throttles[ti].start == g.start &&
        result.throttles[ti].duration == g.duration) {
      continue;
    }
    Span sp;
    sp.kind = SpanKind::kPreempt;
    sp.group = kTrackGroupTenant;
    sp.track = track;
    sp.start = start_time + g.start;
    sp.duration = g.duration;
    sink->Record(sp);
  }
}

}  // namespace faascost
