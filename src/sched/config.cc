#include "src/sched/config.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/validate.h"

namespace faascost {

std::vector<std::string> SchedConfig::Validate() const {
  std::vector<std::string> errors;
  CheckAbove(&errors, "period", period, 0);
  CheckAbove(&errors, "quota", quota, 0);
  CheckAbove(&errors, "tick", tick, 0);
  CheckAbove(&errors, "slice", slice, 0);
  CheckAtLeast(&errors, "num_threads", num_threads, 1);
  CheckAtLeast(&errors, "burst", burst, 0, "0 disables");
  CheckAtLeast(&errors, "noise_mean_gap", noise_mean_gap, 0, "0 disables");
  CheckAtLeast(&errors, "noise_min", noise_min, 0);
  CheckAtLeast(&errors, "noise_max", noise_max, noise_min, "noise_min");
  return errors;
}

SchedConfig MakeSchedConfig(MicroSecs period, double vcpu_fraction, int config_hz,
                            SchedulerKind kind) {
  // Checked before the quota cast, which needs vcpu_fraction * period below
  // 9e18 us, and the tick division; the config is then validated whole,
  // which catches a tick rate past 1 MHz (tick 0).
  std::vector<std::string> errors;
  CheckWithin(&errors, "vcpu_fraction", vcpu_fraction, 0.0,
              period > 0 ? 9.0e18 / static_cast<double>(period) : kInf, Ends::kOpen);
  CheckAbove(&errors, "config_hz", config_hz, 0);
  ThrowIfInvalid("MakeSchedConfig arguments", errors);
  SchedConfig c;
  c.period = period;
  c.quota = std::max<MicroSecs>(
      1, static_cast<MicroSecs>(vcpu_fraction * static_cast<double>(period)));
  c.tick = kMicrosPerSec / config_hz;
  c.scheduler = kind;
  ThrowIfInvalid("SchedConfig", c.Validate());
  return c;
}

SchedConfig AwsLambdaSched(double vcpu_fraction) {
  SchedConfig c = MakeSchedConfig(20 * kMicrosPerMilli, vcpu_fraction, 250);
  c.name = "AWS Lambda (P=20ms, 250Hz, CFS)";
  return c;
}

SchedConfig GcpSched(double vcpu_fraction) {
  SchedConfig c = MakeSchedConfig(100 * kMicrosPerMilli, vcpu_fraction, 1000);
  c.name = "GCP (P=100ms, 1000Hz, CFS)";
  // GCP shows 6.42-14.83% of gaps shorter than 2 ms -- co-tenant context
  // switches and preemptions within the quota (paper §4.3) -- modeled as
  // noise arriving about every 500 ms of runtime (roughly one short gap per
  // ten 100 ms enforcement cycles).
  c.noise_mean_gap = 500 * kMicrosPerMilli;
  return c;
}

SchedConfig IbmSched(double vcpu_fraction) {
  SchedConfig c = MakeSchedConfig(10 * kMicrosPerMilli, vcpu_fraction, 250);
  c.name = "IBM Code Engine (P=10ms, 250Hz, CFS)";
  return c;
}

SchedConfig LocalVmSched(MicroSecs period, double vcpu_fraction, int config_hz,
                         SchedulerKind kind) {
  SchedConfig c = MakeSchedConfig(period, vcpu_fraction, config_hz, kind);
  c.name = "local VM";
  return c;
}

double AwsVcpuFractionForMemory(MegaBytes mem_mb) {
  return std::min(mem_mb / kAwsLambdaMbPerVcpu, 6.0);
}

}  // namespace faascost
