// Multi-tenant host scheduling simulation (paper §4): "Serverless has a high
// degree of co-tenancy on servers... the OS kernel plays a crucial role in
// enforcing resource isolation and fair allocation across workloads with
// varying limits from different tenants."
//
// Models M cores shared by K single-threaded tenant task groups, each under
// its own CPU bandwidth-control quota. Dispatch is fair-share (lowest
// vruntime first) at tick granularity, so tenant tasks experience two kinds
// of gaps from user space: bandwidth throttles (multiples of the period, as
// in CpuBandwidthSim) and short waiting-for-a-core preemptions -- the sub-2ms
// gaps the paper measures on GCP, which the single-task simulator injects as
// exogenous noise but which emerge endogenously here.
//
// Bandwidth control changes a tenant's fate only at discrete points: a period
// refill, a demand flip, quota exhaustion, or losing a core. So the simulator
// processes one tick in full and, while every runnable tenant holds a core,
// applies the following ticks in bulk up to the next such point; a contended
// tick (more runnable tenants than cores) is a step of its own. The results
// are bit-identical to stepping every tick.

#ifndef FAASCOST_SCHED_HOST_SIM_H_
#define FAASCOST_SCHED_HOST_SIM_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/integrity/integrity.h"
#include "src/obs/span.h"
#include "src/sched/bandwidth_sim.h"
#include "src/sched/config.h"

namespace faascost {

struct TenantSpec {
  double quota_fraction = 0.5;  // Quota / period for this tenant's cgroup.
  double weight = 1.0;          // cpu.shares-style fair-share weight.
  // Duty cycle: the tenant wants CPU only `demand_fraction` of the time
  // (modeled as random on/off phases); 1.0 = always runnable.
  double demand_fraction = 1.0;
};

struct HostSimConfig {
  int cores = 4;
  MicroSecs period = 100 * kMicrosPerMilli;
  MicroSecs tick = 1 * kMicrosPerMilli;  // 1000 Hz.
  MicroSecs duration = 10LL * kMicrosPerSec;
  // Mean on/off phase length for tenants with demand_fraction < 1.
  MicroSecs demand_phase = 50 * kMicrosPerMilli;
  // Observability hook (non-owning, may be null). Each detected gap is also
  // emitted as a kThrottle (quota exhausted at some point during the gap) or
  // kPreempt span on kTrackGroupTenant, tid = tenant index. Null-sink runs
  // are bit-identical to uninstrumented ones.
  TraceSink* trace = nullptr;
  // Runtime invariant auditor (non-owning, may be null). Basic level checks
  // dispatch-width bounds once per step; full level additionally verifies
  // core-time conservation (sum of tenant CPU == busy core ticks) and the
  // per-tenant gap taxonomy at every quota-period boundary.
  Auditor* auditor = nullptr;

  // Empty when this config and `tenants` describe a runnable host: at least
  // one core, a positive tick dividing a positive period, a positive
  // duration, a demand phase in (0, 1e15] us, and per tenant a finite
  // non-negative quota, a finite positive weight and a demand fraction in
  // [0, 1].
  std::vector<std::string> Validate(const std::vector<TenantSpec>& tenants) const;
};

struct TenantResult {
  MicroSecs cpu_obtained = 0;
  MicroSecs runnable_time = 0;  // Time the task wanted a CPU.
  double cpu_share = 0.0;       // obtained / duration.
  // Gaps observed by an Algorithm-1-style probe: intervals where the task
  // was runnable but off-CPU for more than the detection threshold.
  std::vector<SuspensionEvent> gaps;
  int64_t throttled_ticks = 0;  // Off-CPU due to exhausted quota.
  int64_t preempted_ticks = 0;  // Off-CPU while unthrottled (lost the core).
};

struct HostSimResult {
  std::vector<TenantResult> tenants;
  double host_utilization = 0.0;  // Busy core-time / (cores * duration).
};

// Runs the host for `config.duration`. Deterministic given the seed. Throws
// std::invalid_argument when config.Validate(tenants) reports errors.
HostSimResult SimulateHost(const HostSimConfig& config,
                           const std::vector<TenantSpec>& tenants, uint64_t seed);

}  // namespace faascost

#endif  // FAASCOST_SCHED_HOST_SIM_H_
