// Windowed metric autoscaler for multi-concurrency platforms (paper §3.1).
//
// Platforms with the multi-concurrency serving model aggregate scaling
// metrics over a time window (60 s by default in Knative's KPA) to avoid
// oscillation, which is why "scaling does not begin until about 40 s" into
// the paper's 15 RPS experiment (Fig. 6-right): the windowed average has to
// climb past the per-instance capacity before the desired count crosses the
// next integer.
//
// Like Knative's KPA, the desired count derives from windowed *demand*
// divided by per-instance capacity, independent of the current count:
//   desired = ceil(window_avg_demand / per_instance_capacity)
// where demand is the arrival work rate in vCPU-seconds per second and
// capacity = vcpus * target_utilization.

#ifndef FAASCOST_PLATFORM_AUTOSCALER_H_
#define FAASCOST_PLATFORM_AUTOSCALER_H_

#include <deque>
#include <string_view>
#include <utility>

#include "src/common/units.h"

namespace faascost {

struct AutoscalerConfig {
  double target_utilization = 0.6;  // GCP default CPU utilization target.
  // Demand one instance is expected to absorb (vCPU-seconds per second);
  // the platform simulator sets this to vcpus * target_utilization.
  double per_instance_capacity = 0.6;
  MicroSecs metric_window = 60LL * kMicrosPerSec;  // Knative stable window.
  MicroSecs sample_interval = 1LL * kMicrosPerSec;
  MicroSecs eval_interval = 2LL * kMicrosPerSec;
  // Minimum time between scale actions (stabilization against flapping).
  MicroSecs action_cooldown = 10LL * kMicrosPerSec;
  int max_instances = 1000;
};

class WindowedAutoscaler {
 public:
  explicit WindowedAutoscaler(AutoscalerConfig config);

  // Records a demand sample (vCPU-seconds of arriving work per second of
  // wall time) at time `now`.
  void AddSample(MicroSecs now, double demand);

  // Average demand over the window. Slots with no sample yet (window not
  // filled) count as zero, which is what delays early scale-up.
  double WindowAverage(MicroSecs now) const;

  // Desired instance count from the window average.
  int DesiredInstances(MicroSecs now) const;

  const AutoscalerConfig& config() const { return config_; }

  // Walks the sample window, the autoscaler's only mutable state, as the
  // array `key` with a state archiver (src/integrity/archive.h). Restoring
  // it resumes scaling decisions bit-exactly.
  template <typename Ar>
  void Archive(Ar& ar, std::string_view key) {
    samples_.resize(ar.BeginArray(key, samples_.size()));
    for (auto& [t, demand] : samples_) {
      ar.BeginElem();
      ar.Field("t", t);
      ar.Field("d", demand);
      ar.EndElem();
    }
    ar.EndArray();
  }

 private:
  AutoscalerConfig config_;
  std::deque<std::pair<MicroSecs, double>> samples_;
};

}  // namespace faascost

#endif  // FAASCOST_PLATFORM_AUTOSCALER_H_
