// The warm-pool rule of the fleet and workflow engines. A pool holds one
// function's sandboxes, each with the `MicroSecs free_at` at which it
// finishes its last request. At an arrival at `t`:
//   1. ExpireIdle drops every sandbox idle for longer than the keep-alive
//      window, measured from `free_at`;
//   2. LatestIdle picks the idle sandbox freed last, the earliest slot on
//      ties; none left means a cold start.
// The engines differ around the rule, not in it: the fleet checks the pick
// for host death and reuses it in place, and the workflow takes it out of
// the pool until its attempt row closes.
//
// PlatformSim keeps its own pool: it reuses the sandbox readied last, and
// its keep-alive is a per-platform policy draw that expires through an event.

#ifndef FAASCOST_ENGINE_WARM_POOL_H_
#define FAASCOST_ENGINE_WARM_POOL_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "src/common/units.h"

namespace faascost {

// LatestIdle's "no idle sandbox".
inline constexpr size_t kNoWarm = std::numeric_limits<size_t>::max();

// Removes from `pool`, keeping the rest in order, every sandbox idle at `t`
// for longer than `keepalive`, handing each to `expire` first. The test is
// `t - free_at > keepalive`, which cannot overflow; `free_at + keepalive < t`
// would for a keep-alive near int64's limit.
template <typename Sandbox, typename Expire>
void ExpireIdle(std::vector<Sandbox>& pool, MicroSecs t, MicroSecs keepalive, Expire expire) {
  size_t kept = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].free_at <= t && t - pool[i].free_at > keepalive) {
      expire(pool[i]);
    } else {
      pool[kept++] = pool[i];
    }
  }
  pool.resize(kept);
}

// Slot of the idle sandbox freed last (earliest slot on ties), or kNoWarm.
template <typename Sandbox>
size_t LatestIdle(const std::vector<Sandbox>& pool, MicroSecs t) {
  size_t best = kNoWarm;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].free_at <= t && (best == kNoWarm || pool[i].free_at > pool[best].free_at)) {
      best = i;
    }
  }
  return best;
}

}  // namespace faascost

#endif  // FAASCOST_ENGINE_WARM_POOL_H_
