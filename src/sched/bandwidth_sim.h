// Discrete-event simulator of Linux CPU bandwidth control for a task group
// in a cgroup (paper §4.2).
//
// The model reproduces the kernel mechanism at tick resolution:
//   - The cgroup's global runtime pool is refilled to the quota (plus any
//     accumulated burst allowance) by the hrtimer callback once per period.
//   - The per-CPU local pools acquire min(slice, remaining-global) when they
//     run dry at an accounting point.
//   - Runtime accounting happens lazily, at scheduler ticks (1/CONFIG_HZ),
//     at suspension (voluntary context switch), and -- under EEVDF -- at one
//     extra deadline check per tick interval. Between accounting points the
//     task runs unchecked, so the local pool can go negative (overrun debt).
//   - When both pools are exhausted the task group is throttled until a
//     refill covers the debt plus one microsecond (the kernel unthrottles
//     once runtime_remaining becomes positive).
//
// Supported workload shapes:
//   - CPU-bound (Run / RunWithRandomPhase): burns CPU continuously.
//   - I/O-bound (RunIoBound): alternates CPU bursts with blocking waits that
//     consume no quota; the paper notes such tasks trigger fewer throttles.
//   - Parallel (SchedConfig::num_threads > 1): symmetric threads on
//     dedicated cores sharing the group quota (multi-vCPU allocations).
//
// The worked example in the paper (quota 1.45 ms, period 20 ms, 250 Hz tick:
// the task runs 4 ms, is throttled 36 ms, runs 4 ms, is throttled 56 ms, ...)
// is reproduced exactly by this simulator and pinned in tests.

#ifndef FAASCOST_SCHED_BANDWIDTH_SIM_H_
#define FAASCOST_SCHED_BANDWIDTH_SIM_H_

#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/span.h"
#include "src/sched/config.h"

namespace faascost {

// A contiguous interval during which the task did not run involuntarily
// (bandwidth throttle or co-tenant preemption; voluntary I/O waits are
// reported separately).
struct SuspensionEvent {
  MicroSecs start = 0;
  MicroSecs duration = 0;
};

struct TaskRunResult {
  MicroSecs wall_duration = 0;  // Time from start until completion/cutoff.
  MicroSecs cpu_obtained = 0;   // CPU time actually consumed (all threads).
  bool completed = false;       // True if the demand was fully served.
  std::vector<SuspensionEvent> throttles;  // Bandwidth throttles only.
  std::vector<SuspensionEvent> gaps;       // Throttles + co-tenant preemptions
                                           // (what Algorithm 1 observes).
  MicroSecs io_blocked = 0;     // Total voluntary blocking time (I/O waits).
};

// Run/block alternation of an I/O-bound task: `cpu_burst` of CPU work
// followed by `io_wait` of blocking, repeated until the demand is served.
struct IoPattern {
  MicroSecs cpu_burst = 0;  // 0 disables the pattern (pure CPU-bound).
  MicroSecs io_wait = 0;
};

inline constexpr MicroSecs kUnlimitedDemand = std::numeric_limits<MicroSecs>::max() / 4;

class CpuBandwidthSim {
 public:
  // Throws std::invalid_argument when config.Validate() reports errors.
  explicit CpuBandwidthSim(SchedConfig config);

  // Runs a CPU-bound task that needs `cpu_demand` microseconds of CPU time,
  // stopping early once `wall_limit` elapses. `tick_phase` and `refill_phase`
  // offset the first tick/refill relative to the task start (randomize them
  // across invocations to model unaligned arrivals). `rng` is required only
  // when co-tenant noise is enabled.
  TaskRunResult Run(MicroSecs cpu_demand, MicroSecs wall_limit, MicroSecs tick_phase = 0,
                    MicroSecs refill_phase = 0, Rng* rng = nullptr) const;

  // Same, for an I/O-bound task alternating CPU bursts and blocking waits.
  TaskRunResult RunIoBound(const IoPattern& io, MicroSecs cpu_demand, MicroSecs wall_limit,
                           MicroSecs tick_phase = 0, MicroSecs refill_phase = 0,
                           Rng* rng = nullptr) const;

  // Convenience: run with randomized phases drawn from `rng`. Refills stay
  // aligned with the tick grid (both timers share the clock base).
  TaskRunResult RunWithRandomPhase(MicroSecs cpu_demand, MicroSecs wall_limit,
                                   Rng& rng) const;

  const SchedConfig& config() const { return config_; }

 private:
  TaskRunResult RunImpl(const IoPattern& io, MicroSecs cpu_demand, MicroSecs wall_limit,
                        MicroSecs tick_phase, MicroSecs refill_phase, Rng* rng) const;

  SchedConfig config_;
};

// Converts a finished task run into spans on kTrackGroupTenant, tid `track`:
// one kExec span covering the wall duration (status "ok"/"cutoff") plus one
// kThrottle span per bandwidth throttle and one kPreempt span per remaining
// gap (a gap that is not also a throttle). `start_time` anchors the run on
// the trace clock. No-op when `sink` is null.
void EmitTaskRunSpans(const TaskRunResult& result, MicroSecs start_time, int64_t track,
                      TraceSink* sink);

}  // namespace faascost

#endif  // FAASCOST_SCHED_BANDWIDTH_SIM_H_
