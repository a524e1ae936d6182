// Configuration of the CPU bandwidth-control simulator (paper §4.2-4.3).
//
// The simulator models the Linux CFS/EEVDF bandwidth-control machinery for a
// single CPU-bound task inside a cgroup:
//   - a quota Q refilled into the cgroup's global runtime pool once per
//     period P by an hrtimer callback,
//   - a per-CPU local pool that acquires runtime from the global pool in
//     slices of min(sched_cfs_bandwidth_slice, remaining),
//   - runtime accounting that happens only at scheduler ticks (CONFIG_HZ)
//     and other accounting events, so a task can overrun its quota between
//     accounting points and accumulate debt (negative local runtime),
//   - throttling onto a throttled queue until a refill covers the debt.

#ifndef FAASCOST_SCHED_CONFIG_H_
#define FAASCOST_SCHED_CONFIG_H_

#include <string>
#include <vector>

#include "src/common/units.h"

namespace faascost {

enum class SchedulerKind {
  kCfs,
  // EEVDF performs additional update_curr accounting when checking virtual
  // deadlines, which empirically halves the effective accounting lag (the
  // paper observes "slightly less overrun" under EEVDF at the same HZ). We
  // model this as one extra accounting event per tick interval.
  kEevdf,
};

struct SchedConfig {
  std::string name = "local";
  MicroSecs period = 100 * kMicrosPerMilli;  // cpu.cfs_period_us.
  MicroSecs quota = 100 * kMicrosPerMilli;   // cpu.cfs_quota_us.
  MicroSecs tick = 4 * kMicrosPerMilli;      // 1e6 / CONFIG_HZ.
  MicroSecs slice = 5 * kMicrosPerMilli;     // sched_cfs_bandwidth_slice_us.
  SchedulerKind scheduler = SchedulerKind::kCfs;
  // CFS burst (cpu.cfs_burst_us, Linux 5.14+): unused quota accumulates up
  // to this allowance and can be spent in spikes. 0 disables bursting.
  MicroSecs burst = 0;
  // Symmetric runnable threads on dedicated cores sharing the group quota
  // (multi-vCPU allocations map to quota/period > 1 with several threads).
  int num_threads = 1;

  // External preemption noise from co-tenants: exponentially distributed
  // inter-arrival gaps (mean `noise_mean_gap`) during which the task is
  // suspended for Uniform(noise_min, noise_max) without consuming quota.
  // Disabled when noise_mean_gap == 0.
  MicroSecs noise_mean_gap = 0;
  MicroSecs noise_min = 500;
  MicroSecs noise_max = 2 * kMicrosPerMilli;

  double QuotaFraction() const {
    return period > 0 ? static_cast<double>(quota) / static_cast<double>(period) : 0.0;
  }

  // Human-readable config errors; empty when the simulator can run it.
  std::vector<std::string> Validate() const;
};

// Convenience constructors. Throw std::invalid_argument on a non-positive
// period, vCPU fraction or tick rate, or one whose tick rounds to 0 us.
SchedConfig MakeSchedConfig(MicroSecs period, double vcpu_fraction, int config_hz,
                            SchedulerKind kind = SchedulerKind::kCfs);

// Platform presets matching the parameters the paper infers empirically
// (Table 3): AWS Lambda P=20 ms / 250 Hz, GCP P=100 ms / 1000 Hz,
// IBM P=10 ms / 250 Hz. GCP additionally shows frequent sub-2 ms preemption
// gaps, modeled as co-tenant noise.
SchedConfig AwsLambdaSched(double vcpu_fraction);
SchedConfig GcpSched(double vcpu_fraction);
SchedConfig IbmSched(double vcpu_fraction);

// In-house VM presets used in §4.3 for local matching runs.
SchedConfig LocalVmSched(MicroSecs period, double vcpu_fraction, int config_hz,
                         SchedulerKind kind);

// AWS Lambda's memory-proportional vCPU fraction (1769 MB per vCPU).
double AwsVcpuFractionForMemory(MegaBytes mem_mb);

}  // namespace faascost

#endif  // FAASCOST_SCHED_CONFIG_H_
