// The benchmark's four workloads. Each runs one fixed-size batch through
// the faascost pipeline, from input generation to export, timing every call
// into a layer through the tracer, and returns the simulated outputs run.py
// checks. A failed reconciliation gate or audit throws.

#ifndef FAASCOST_PERFBENCH_WORKLOADS_H_
#define FAASCOST_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/timeseries.h"
#include "tracer.h"

namespace faascost::perfbench {

struct WorkloadOutputs {
  // Simulated input requests the pipeline processed: the divisor of every
  // per-request metric (trace records, arrivals, or workflow instances x
  // hops per DAG).
  int64_t work_units = 0;
  // Simulated results, named "<layer>.<what>": exact counts, and USD totals
  // compared by bit pattern. Pinned per seed.
  std::vector<std::pair<std::string, int64_t>> counts;
  std::vector<std::pair<std::string, double>> usd;
  // Engine work (audit checks, events processed, queue peak) and state and
  // input digests. They must repeat exactly run to run but are never
  // pinned: an optimisation may legitimately move the work counts, and
  // layout-independent checkpoints will change the digests.
  std::vector<std::pair<std::string, int64_t>> engine_work;
  std::vector<std::pair<std::string, uint64_t>> digests;
};

WorkloadOutputs RunFleetChaos(uint64_t seed, LayerTracer& tracer);
WorkloadOutputs RunFleetObserved(uint64_t seed, LayerTracer& tracer);
WorkloadOutputs RunPlatformTopDown(uint64_t seed, LayerTracer& tracer);
WorkloadOutputs RunWorkflowFanOut(uint64_t seed, LayerTracer& tracer);

// Throws when a config fails its own Validate().
inline void RequireValid(const std::vector<std::string>& errors, const char* what) {
  if (!errors.empty()) {
    throw std::invalid_argument(std::string(what) + ": " + errors.front());
  }
}

// Throws when a bitwise per-window USD reconciliation gate fails.
inline void RequireReconciled(const BilledReconciliation& rec, const char* gate) {
  if (!rec.ok) {
    throw std::runtime_error(std::string(gate) + " reconciliation failed at window " +
                             std::to_string(rec.first_mismatch_window));
  }
}

}  // namespace faascost::perfbench

#endif  // FAASCOST_PERFBENCH_WORKLOADS_H_
