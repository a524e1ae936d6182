// Unit types and conversions shared across the faascost libraries.
//
// The simulators operate on integer microseconds (`MicroSecs`) to avoid
// floating-point drift in discrete-event queues; analysis and billing code use
// double-precision seconds. Memory is tracked in megabytes (the granularity of
// every platform control knob in the paper's Table 1) and billed in GB-seconds.

#ifndef FAASCOST_COMMON_UNITS_H_
#define FAASCOST_COMMON_UNITS_H_

#include <cstdint>

namespace faascost {

// Simulation time: integer microseconds since simulation start.
using MicroSecs = int64_t;

inline constexpr MicroSecs kMicrosPerMilli = 1'000;
inline constexpr MicroSecs kMicrosPerSec = 1'000'000;

constexpr MicroSecs MillisToMicros(double ms) {
  return static_cast<MicroSecs>(ms * static_cast<double>(kMicrosPerMilli));
}

constexpr MicroSecs SecsToMicros(double s) {
  return static_cast<MicroSecs>(s * static_cast<double>(kMicrosPerSec));
}

constexpr double MicrosToMillis(MicroSecs us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerMilli);
}

constexpr double MicrosToSecs(MicroSecs us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerSec);
}

// Memory sizes. Control knobs are expressed in MB (Table 1); billable memory
// in GB-seconds.
using MegaBytes = double;

inline constexpr double kMbPerGb = 1024.0;

constexpr double MbToGb(MegaBytes mb) { return mb / kMbPerGb; }

// Payload sizes are lognormal draws with unbounded tails. Each draw is
// clamped to this cap, above every platform's invocation payload limit,
// before it becomes an integer byte count, so no finite mean overflows the
// conversion.
inline constexpr int64_t kMaxPayloadBytes = int64_t{1} << 32;

constexpr double CapPayloadBytes(double bytes) {
  return bytes < static_cast<double>(kMaxPayloadBytes) ? bytes
                                                       : static_cast<double>(kMaxPayloadBytes);
}

// Billable resource-time products.
struct GbSeconds {
  double value = 0.0;
};

struct VcpuSeconds {
  double value = 0.0;
};

// Money. All prices in the catalog are USD.
using Usd = double;

// The AWS Lambda memory size that corresponds to exactly one vCPU; vCPUs are
// allocated proportionally to memory below/above this point (paper §1, §2.2).
inline constexpr MegaBytes kAwsLambdaMbPerVcpu = 1769.0;

}  // namespace faascost

#endif  // FAASCOST_COMMON_UNITS_H_
