// Reproduces Table 2: resource allocation behaviour during keep-alive and
// graceful-shutdown support, plus an empirical measurement of the CPU share
// available to a sandbox during its KA phase (the paper runs Algorithm 1
// inside the KA window).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/platform/keepalive.h"
#include "src/sched/bandwidth_sim.h"

namespace faascost {
namespace {

// CPU share measured by a profiling probe running during the KA phase: the
// sandbox's bandwidth-control quota is set to the KA-phase CPU allocation.
double MeasureKaCpuShare(const KeepAlivePolicy& policy, double alloc_vcpus) {
  const double ka_share = policy.KaCpuShare(alloc_vcpus) * alloc_vcpus;
  if (ka_share <= 0.0) {
    return 0.0;  // Frozen or cache-only: the probe cannot run at all.
  }
  SchedConfig sc = MakeSchedConfig(100 * kMicrosPerMilli, std::min(ka_share, 1.0), 1000);
  const CpuBandwidthSim sim(sc);
  const TaskRunResult r = sim.Run(kUnlimitedDemand, 10LL * kMicrosPerSec);
  return static_cast<double>(r.cpu_obtained) / static_cast<double>(r.wall_duration);
}

}  // namespace
}  // namespace faascost

int main() {
  using namespace faascost;

  PrintHeader("Table 2: Resource allocation behaviour during keep-alive");
  TextTable table({"Platform", "KA-phase behaviour", "Measured KA CPU (vCPUs)",
                   "Graceful shutdown"});

  struct Case {
    const char* platform;
    KeepAlivePolicy policy;
    double alloc_vcpus;
    const char* shutdown_note;
  };
  Case cases[] = {
      {"AWS Lambda", MakeAwsKeepAlive(), 1.0,
       "supported with Lambda Extensions (waits for SIGTERM handling)"},
      {"GCP Function (request-based)", MakeGcpKeepAlive(), 1.0,
       "N/A (killed without SIGTERM)"},
      {"Azure Function (Consumption)", MakeAzureKeepAlive(), 1.0,
       "N/A (killed right after SIGTERM)"},
      {"Cloudflare Workers", MakeCloudflareKeepAlive(), 1.0, "N/A"},
  };
  for (const Case& c : cases) {
    const double measured = MeasureKaCpuShare(c.policy, c.alloc_vcpus);
    table.AddRow({c.platform, KaResourceBehaviorName(c.policy.resource_behavior()),
                  FormatDouble(measured, 3), c.shutdown_note});
  }
  std::printf("%s", table.Render().c_str());

  PrintPaperVsMeasured("GCP CPU during KA (paper: ~0.01 vCPUs)", 0.01,
                       MeasureKaCpuShare(MakeGcpKeepAlive(), 1.0), "vCPU");
  PrintPaperVsMeasured("Azure CPU during KA (full allocation)", 1.0,
                       MeasureKaCpuShare(MakeAzureKeepAlive(), 1.0), "vCPU");
  PrintPaperVsMeasured("AWS CPU during KA (frozen)", 0.0,
                       MeasureKaCpuShare(MakeAwsKeepAlive(), 1.0), "vCPU");

  std::printf(
      "\nImplications (paper §3.3): deallocating resources during KA (AWS,\n"
      "Cloudflare) saves provider cost but drops long-lived connections;\n"
      "keeping resources live (Azure, GCP) enables background activity --\n"
      "including the Azure unbilled-background-work pattern evaluated by\n"
      "bench_exploit_ka_background.\n");
  return 0;
}
