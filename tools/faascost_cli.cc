// faascost command-line tool: billing, auditing, rightsizing and trace
// generation from the shell. Usage() lists every subcommand and its flags.
//
// Exit status (src/cli/exit_codes.h, documented in README): 0 on success,
// 1 on usage errors (an unknown or unused flag, a stray argument, a
// malformed, non-finite or out-of-range value, or an invalid config, all
// raised before anything runs), 2 when an integrity invariant or a
// bit-for-bit USD reconciliation fails mid-run (IntegrityViolation), 3 on a
// malformed or mismatched checkpoint / unparseable artifact
// (CheckpointError).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/billing/analysis.h"
#include "src/billing/catalog.h"
#include "src/billing/tiered.h"
#include "src/cli/exit_codes.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/chart.h"
#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/common/validate.h"
#include "src/core/observe.h"
#include "src/core/rightsizing.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/checkpoint.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/engine_profiler.h"
#include "src/obs/exporters.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/sched/host_sim.h"
#include "src/trace/generator.h"
#include "src/trace/io.h"
#include "src/workflow/dag.h"
#include "src/workflow/policy.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

// Longest duration flag value, in whole seconds: the sim's duration ceiling
// (kMaxDuration, a century).
constexpr int64_t kMaxFlagSeconds = kMaxDuration / kMicrosPerSec;

constexpr bool kOpen = true;  // Flags::Real excludes both bounds.

// The flags after the subcommand: `--key value`, or a bare `--key`. Each
// typed reader is a flag's only declaration: it parses the value strictly
// (no atof/atoll, which report neither garbage nor overflow), range-checks
// it, marks the flag read, and on a bad value throws std::invalid_argument
// naming the flag, which Main prints as `<cmd>: --<flag> ...` (exit 1). A
// subcommand reads every flag it uses before it runs anything, then calls
// RejectUnread.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      }
      // A flag followed by another flag (or nothing) is bare: `--json
      // --platform aws` must not swallow `--platform` as a value.
      std::optional<std::string> value;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value = argv[++i];
      }
      entries_[arg.substr(2)] = {std::move(value), false};
    }
  }

  // A bare flag, or one of true/false/1/0; false when absent.
  bool Bool(const char* key) {
    const Entry* e = Take(key);
    if (e == nullptr || !e->value.has_value()) {
      return e != nullptr;
    }
    const std::string& v = *e->value;
    if (v == "true" || v == "1") {
      return true;
    }
    if (v == "false" || v == "0") {
      return false;
    }
    throw Invalid(key, "takes no value, or one of true, false, 1, 0", v);
  }

  // The flag's value; nullopt when absent.
  std::optional<std::string> Text(const char* key) {
    const Entry* e = Take(key);
    if (e == nullptr) {
      return std::nullopt;
    }
    if (!e->value.has_value()) {
      throw std::invalid_argument(std::string("--") + key + " needs a value");
    }
    return e->value;
  }

  std::string Required(const char* key) {
    const std::optional<std::string> v = Text(key);
    if (!v.has_value()) {
      throw std::invalid_argument(std::string("--") + key + " is required");
    }
    return *v;
  }

  // An integer in [lo, hi]. A value past T's range is rejected, never
  // narrowed.
  template <typename T>
  T Int(const char* key, T fallback, std::type_identity_t<T> lo,
        std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    const std::optional<std::string> v = Text(key);
    if (!v.has_value()) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const long long x = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE || x < lo || x > hi) {
      throw Invalid(key,
                    "must be an integer in [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]",
                    *v);
    }
    return static_cast<T>(x);
  }

  // A finite number in [lo, hi], or in (lo, hi) when `open`.
  double Real(const char* key, double fallback, double lo, double hi = kInf,
              bool open = false) {
    const std::optional<std::string> v = Text(key);
    if (!v.has_value()) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const double x = std::strtod(v->c_str(), &end);
    const bool in_range = open ? lo < x && x < hi : lo <= x && x <= hi;
    if (end == v->c_str() || *end != '\0' || errno == ERANGE || !std::isfinite(x) ||
        !in_range) {
      char range[64];
      std::snprintf(range, sizeof(range), "%c%g, %g%c", open ? '(' : '[', lo, hi,
                    open || std::isinf(hi) ? ')' : ']');
      throw Invalid(key, std::string("must be a finite number in ") + range, *v);
    }
    return x;
  }

  // A fractional duration counted in `unit` (kMicrosPerMilli for the --*-ms
  // flags, kMicrosPerSec for the --*-s ones), from `min_us` up to a century,
  // in microseconds. The century bound is checked before the conversion,
  // so the cast cannot overflow.
  MicroSecs Duration(const char* key, double fallback, MicroSecs unit, MicroSecs min_us = 0) {
    const double scale = static_cast<double>(unit);
    const double max_us = static_cast<double>(kMaxDuration);
    return static_cast<MicroSecs>(
        Real(key, fallback, static_cast<double>(min_us) / scale, max_us / scale) * scale);
  }

  // Whole seconds in [lo, a century], in microseconds.
  MicroSecs Seconds(const char* key, int64_t fallback, int64_t lo = 1) {
    return Int<int64_t>(key, fallback, lo, kMaxFlagSeconds) * kMicrosPerSec;
  }

  // The value `choices` pairs with the flag's name; `fallback` names it when
  // the flag is absent, and a null `fallback` makes the flag required.
  template <typename T, size_t N>
  T Choice(const char* key, const char* fallback,
           const std::pair<const char*, T> (&choices)[N]) {
    const std::string name = fallback != nullptr ? Text(key).value_or(fallback) : Required(key);
    std::string names;
    for (const auto& [choice, value] : choices) {
      if (name == choice) {
        return value;
      }
      names += (names.empty() ? "" : ", ") + std::string(choice);
    }
    throw Invalid(key, "must be one of " + names, name);
  }

  // Throws on a flag no reader asked for: unknown to the subcommand, or
  // unused in the mode the other flags select.
  void RejectUnread() const {
    for (const auto& [key, entry] : entries_) {
      if (!entry.read) {
        throw std::invalid_argument("--" + key + " is unknown, or unused with these flags");
      }
    }
  }

 private:
  struct Entry {
    std::optional<std::string> value;  // nullopt: a bare flag.
    bool read = false;
  };

  // Marks `key` read; nullptr when the flag is absent.
  const Entry* Take(const char* key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      return nullptr;
    }
    it->second.read = true;
    return &it->second;
  }

  static std::invalid_argument Invalid(const char* key, const std::string& rule,
                                       const std::string& got) {
    return std::invalid_argument(std::string("--") + key + " " + rule + ", got '" + got + "'");
  }

  std::map<std::string, Entry> entries_;
};

constexpr std::pair<const char*, Platform> kPlatforms[] = {
    {"aws", Platform::kAwsLambda},
    {"gcp", Platform::kGcpCloudRunFunctions},
    {"azure", Platform::kAzureConsumption},
    {"azure-flex", Platform::kAzureFlexConsumption},
    {"ibm", Platform::kIbmCodeEngine},
    {"huawei", Platform::kHuaweiFunctionGraph},
    {"alibaba", Platform::kAlibabaFunctionCompute},
    {"oracle", Platform::kOracleFunctions},
    {"vercel", Platform::kVercelFunctions},
    {"cloudflare", Platform::kCloudflareWorkers},
};

constexpr std::pair<const char*, AuditLevel> kAuditLevels[] = {
    {"off", AuditLevel::kOff}, {"basic", AuditLevel::kBasic}, {"full", AuditLevel::kFull}};

enum class Sim { kPlatform, kFleet };
constexpr std::pair<const char*, Sim> kSims[] = {{"platform", Sim::kPlatform},
                                                 {"fleet", Sim::kFleet}};

// The synthetic trace behind chaos, network, monitor --sim fleet and audit
// --sim fleet: --requests over --functions spread across --seconds.
TraceGenConfig ReadTraceFlags(Flags& flags) {
  TraceGenConfig cfg;
  cfg.num_requests = flags.Int<int64_t>("requests", 20'000, 1);
  cfg.num_functions = flags.Int<int64_t>("functions", 200, 1);
  cfg.window = flags.Seconds("seconds", 3'600);
  return cfg;
}

// --outage-zone Z [--outage-start-s 10] [--outage-seconds 30] of workflows
// and network: one zonal outage window, or none without --outage-zone.
std::vector<NetOutage> ReadOutages(Flags& flags) {
  const int zone = flags.Int("outage-zone", -1, 0);  // -1: no outage.
  if (zone < 0) {
    return {};
  }
  // Braced initializers run in order, so the flags read as listed.
  return {NetOutage{zone, flags.Duration("outage-start-s", 10.0, kMicrosPerSec),
                    flags.Duration("outage-seconds", 30.0, kMicrosPerSec, 1)}};
}

// The host-fault block of chaos, monitor --sim fleet and audit --sim fleet:
// client retries plus seeded host failures. FleetSimConfig::Validate checks
// mtbf against mttr once the caller has added its own fields.
FleetSimConfig ReadHostFaultFlags(Flags& flags, uint64_t seed) {
  FleetSimConfig cfg;
  cfg.fault_seed = seed;
  cfg.retry.max_attempts = flags.Int("retries", 3, 1, kMaxRetryAttempts);
  cfg.host_faults.hosts = flags.Int("hosts", 16, 0);
  cfg.host_faults.mtbf_seconds = flags.Real("mtbf-s", 3'600.0, 0.0);
  cfg.host_faults.mttr_seconds = flags.Real("mttr-s", 120.0, 0.0);
  cfg.host_faults.graceful_fraction = flags.Real("graceful", 0.3, 0.0, 1.0);
  return cfg;
}

// Platform-sim preset for the subset of platforms that have one.
PlatformSimConfig SimPreset(Platform platform) {
  switch (platform) {
    case Platform::kAwsLambda:
      return AwsLambdaPlatform(1.0, 1769.0);
    case Platform::kGcpCloudRunFunctions:
      return GcpPlatform(1.0, 1024.0);
    case Platform::kAzureConsumption:
      return AzurePlatform();
    case Platform::kCloudflareWorkers:
      return CloudflarePlatform();
    case Platform::kIbmCodeEngine:
      return IbmPlatform(1.0, 2048.0);
    default:
      throw std::invalid_argument(
          "--platform has no platform-sim preset (use aws, gcp, azure, ibm or cloudflare)");
  }
}

// Per-command defaults of the platform scenario flags.
struct PlatformFlagDefaults {
  double rate = 0.0;
  double rps = 0.0;
  int64_t seconds = 0;
};

// The steady-stream platform-sim run behind failures, monitor --sim
// platform and audit --sim platform: the `platform` preset with crash
// probability --rate (init failures at rate/4), --retries attempts, and
// --rps uniform arrivals over --seconds.
struct PlatformScenario {
  PlatformSimConfig config;
  double rps = 0.0;
  MicroSecs duration = 0;
};

PlatformScenario ReadPlatformScenario(Flags& flags, Platform platform,
                                      const PlatformFlagDefaults& defaults) {
  PlatformScenario sc{SimPreset(platform)};
  const double rate = flags.Real("rate", defaults.rate, 0.0, 1.0);
  sc.config.faults.crash_prob = rate;
  sc.config.faults.init_failure_prob = rate / 4.0;
  sc.config.retry.max_attempts = flags.Int("retries", 3, 1, kMaxRetryAttempts);
  sc.rps = flags.Real("rps", defaults.rps, 0.0, kInf, kOpen);
  sc.duration = flags.Seconds("seconds", defaults.seconds);
  return sc;
}

int CmdPlatforms(Flags& flags) {
  flags.RejectUnread();
  TextTable t({"Short name", "Platform", "Billable time", "Fee"});
  for (const auto& [name, p] : kPlatforms) {
    const BillingModel m = MakeBillingModel(p);
    const char* time_kind = m.billable_time == BillableTime::kTurnaround ? "turnaround"
                            : m.billable_time == BillableTime::kExecution
                                ? "execution"
                                : "consumed CPU";
    t.AddRow({name, m.platform, time_kind,
              m.invocation_fee > 0 ? FormatSci(m.invocation_fee, 1) : "none"});
  }
  std::printf("%s", t.Render().c_str());
  return 0;
}

int CmdBill(Flags& flags) {
  const Platform platform = flags.Choice("platform", nullptr, kPlatforms);
  RequestRecord r;
  r.exec_duration = flags.Duration("exec-ms", 100.0, kMicrosPerMilli);
  r.cpu_time = flags.Duration("cpu-ms", 50.0, kMicrosPerMilli);
  r.alloc_vcpus = flags.Real("vcpus", 1.0, 0.0);
  r.alloc_mem_mb = flags.Real("mem-mb", 1'024.0, 0.0);
  r.used_mem_mb = flags.Real("used-mem-mb", r.alloc_mem_mb / 4.0, 0.0);
  r.init_duration = flags.Duration("init-ms", 0.0, kMicrosPerMilli);
  r.cold_start = r.init_duration > 0;
  flags.RejectUnread();

  const BillingModel model = MakeBillingModel(platform);
  const SnappedAllocation alloc = SnapAllocation(model, r.alloc_vcpus, r.alloc_mem_mb);
  const Invoice inv = ComputeInvoice(model, r);

  std::printf("Platform: %s\n", model.platform.c_str());
  std::printf("Snapped allocation:   %.3f vCPUs, %.0f MB\n", alloc.vcpus, alloc.mem_mb);
  std::printf("Billable time:        %.3f ms\n", MicrosToMillis(inv.billable_time));
  std::printf("Billable vCPU-time:   %.6f vCPU-s\n", inv.billable_vcpu_seconds);
  std::printf("Billable memory:      %.6f GB-s\n", inv.billable_gb_seconds);
  std::printf("Resource cost:        $%.4g\n", inv.resource_cost);
  std::printf("Invocation fee:       $%.4g\n", inv.invocation_cost);
  std::printf("Total:                $%.4g\n", inv.total);
  std::printf("Per million requests: $%.2f\n", inv.total * 1e6);
  return 0;
}

int CmdCost(Flags& flags) {
  std::vector<RequestRecord> trace;
  const auto path = flags.Text("trace");
  if (path.has_value()) {
    flags.RejectUnread();
    size_t skipped = 0;
    trace = ReadTraceCsvFile(*path, &skipped);
    if (trace.empty()) {
      std::fprintf(stderr, "cost: no records read from %s\n", path->c_str());
      return 1;
    }
    std::printf("Read %zu records (%zu skipped) from %s\n", trace.size(), skipped,
                path->c_str());
  } else {
    TraceGenConfig cfg;
    cfg.num_requests = flags.Int<int64_t>("requests", 200'000, 1);
    cfg.num_functions = flags.Int<int64_t>("functions", 1'000, 1);
    const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 1, 0));
    flags.RejectUnread();
    std::printf("Generating %lld synthetic requests...\n",
                static_cast<long long>(cfg.num_requests));
    trace = TraceGenerator(cfg, seed).Generate();
  }

  TextTable t({"Platform", "total $", "$ / 1k requests", "fees share", "CPU inflation",
               "memory inflation"});
  for (Platform p : AllPlatforms()) {
    const BillingModel m = MakeBillingModel(p);
    Usd resource = 0.0;
    Usd fees = 0.0;
    for (const auto& r : trace) {
      const Invoice inv = ComputeInvoice(m, r);
      resource += inv.resource_cost;
      fees += inv.invocation_cost;
    }
    const InflationResult infl = AnalyzeInflation(m, trace);
    const Usd total = resource + fees;
    t.AddRow({m.platform, FormatDouble(total, 4),
              FormatDouble(total / static_cast<double>(trace.size()) * 1'000.0, 6),
              FormatPercent(total > 0 ? fees / total : 0, 1),
              FormatDouble(infl.cpu_inflation, 2) + "x",
              infl.mem_inflation > 0 ? FormatDouble(infl.mem_inflation, 2) + "x"
                                     : std::string("-")});
  }
  std::printf("%s", t.Render().c_str());
  return 0;
}

constexpr std::pair<const char*, Platform> kRightsizePlatforms[] = {
    {"aws", Platform::kAwsLambda}, {"gcp", Platform::kGcpCloudRunFunctions}};

int CmdRightsize(Flags& flags) {
  const Platform platform = flags.Choice("platform", "aws", kRightsizePlatforms);
  const MicroSecs cpu_demand = flags.Duration("cpu-ms", 160.0, kMicrosPerMilli);
  const double slo_ms = flags.Real("slo-ms", 1'000.0, 0.0);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 1, 0));
  if (platform == Platform::kAwsLambda) {
    flags.RejectUnread();
    RightsizingConfig cfg;
    cfg.cpu_demand = cpu_demand;
    cfg.latency_slo_ms = slo_ms;
    const RightsizingResult r =
        RightsizeAwsMemory(cfg, MakeBillingModel(Platform::kAwsLambda), seed);
    std::printf("AWS Lambda, %.0f ms CPU, SLO %.0f ms:\n",
                MicrosToMillis(cpu_demand), slo_ms);
    std::printf("  recommended memory: %.0f MB (%.1f ms, $%.4g per invocation)\n",
                r.best.mem_mb, r.best.mean_duration_ms, r.best.cost_per_invocation);
    std::printf("  reciprocal-model pick: %.0f MB ($%.4g real)\n", r.model_choice.mem_mb,
                r.model_choice.cost_per_invocation);
    std::printf("  savings from quantization-awareness: %.2f%%\n",
                r.savings_fraction * 100.0);
    return 0;
  }
  GcpRightsizingConfig cfg;
  cfg.cpu_demand = cpu_demand;
  cfg.latency_slo_ms = slo_ms;
  cfg.mem_mb = flags.Real("mem-mb", 512.0, 0.0);
  flags.RejectUnread();
  const RightsizingResult r =
      RightsizeGcpCpu(cfg, MakeBillingModel(Platform::kGcpCloudRunFunctions), seed);
  std::printf("GCP, %.0f ms CPU at %.0f MB, SLO %.0f ms:\n", MicrosToMillis(cpu_demand),
              cfg.mem_mb, slo_ms);
  std::printf("  recommended CPU: %.2f vCPUs (%.1f ms, $%.4g per invocation)\n",
              r.best.vcpu_fraction, r.best.mean_duration_ms, r.best.cost_per_invocation);
  std::printf("  reciprocal-model pick: %.2f vCPUs ($%.4g real)\n",
              r.model_choice.vcpu_fraction, r.model_choice.cost_per_invocation);
  std::printf("  savings from quantization-awareness: %.2f%%\n", r.savings_fraction * 100.0);
  return 0;
}

int CmdGenerate(Flags& flags) {
  const std::string out = flags.Required("out");
  TraceGenConfig cfg;
  cfg.num_requests = flags.Int<int64_t>("requests", 100'000, 1);
  cfg.num_functions = flags.Int<int64_t>("functions", 1'000, 1);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 1, 0));
  flags.RejectUnread();
  const auto trace = TraceGenerator(cfg, seed).Generate();
  const size_t written = WriteTraceCsvFile(out, trace);
  if (written == 0) {
    std::fprintf(stderr, "generate: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("Wrote %zu records to %s\n", written, out.c_str());
  return 0;
}

// Cost-of-failure exploration on a simulated platform: run a steady request
// stream with fault injection and client retries, then report the outcome
// taxonomy and what the failures were billed.
int CmdFailures(Flags& flags) {
  const Platform platform = flags.Choice("platform", "aws", kPlatforms);
  PlatformScenario sc =
      ReadPlatformScenario(flags, platform, {.rate = 0.05, .rps = 5.0, .seconds = 120});
  PlatformSimConfig& sim_config = sc.config;
  sim_config.faults.max_exec_duration = flags.Duration("timeout-ms", 0.0, kMicrosPerMilli);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 1, 0));
  const bool json = flags.Bool("json");
  flags.RejectUnread();
  const double rps = sc.rps;
  const int64_t seconds = sc.duration / kMicrosPerSec;
  PlatformSim sim(sim_config, seed);
  const PlatformSimResult res = sim.Run(UniformArrivals(rps, sc.duration), PyAesWorkload());

  const BillingModel billing = MakeBillingModel(platform);
  const ProvenanceTotals priced = PricePlatformRun(res, sim_config, billing);
  const Usd total = priced.billed_usd;
  const Usd failed_cost = priced.failed_usd;

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("rps", rps);
    w.KV("seconds", static_cast<int64_t>(seconds));
    w.KV("crash_prob", sim_config.faults.crash_prob);
    w.KV("init_failure_prob", sim_config.faults.init_failure_prob);
    w.KV("max_attempts", sim_config.retry.max_attempts);
    w.KV("seed", static_cast<int64_t>(seed));
    w.KV("requests", static_cast<int64_t>(res.requests.size()));
    w.KV("successes", res.successes);
    w.KV("attempts", static_cast<int64_t>(res.attempts.size()));
    w.KV("retries", res.retries);
    w.KV("crashes", res.crash_attempts);
    w.KV("init_failures", res.init_failure_attempts);
    w.KV("timeouts", res.timeout_attempts);
    w.KV("rejections", res.rejected_attempts);
    w.KV("cold_starts", res.cold_starts);
    w.KV("billed_usd", total);
    w.KV("failed_usd", failed_cost);
    w.KV("cost_per_success",
         res.successes > 0 ? total / static_cast<double>(res.successes) : 0.0);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("%s: %.1f rps for %llds, crash %.1f%%, init-failure %.2f%%, %d attempts max\n",
              billing.platform.c_str(), rps, static_cast<long long>(seconds),
              sim_config.faults.crash_prob * 100.0,
              sim_config.faults.init_failure_prob * 100.0, sim_config.retry.max_attempts);
  std::printf("Requests:             %zu (%lld ok, %lld failed terminally)\n",
              res.requests.size(), static_cast<long long>(res.successes),
              static_cast<long long>(static_cast<int64_t>(res.requests.size()) -
                                     res.successes));
  std::printf("Attempts:             %zu (%lld retries)\n", res.attempts.size(),
              static_cast<long long>(res.retries));
  std::printf("  crashes:            %lld\n", static_cast<long long>(res.crash_attempts));
  std::printf("  init failures:      %lld\n",
              static_cast<long long>(res.init_failure_attempts));
  std::printf("  timeouts:           %lld\n", static_cast<long long>(res.timeout_attempts));
  std::printf("  rejections:         %lld\n", static_cast<long long>(res.rejected_attempts));
  std::printf("Cold starts:          %d\n", res.cold_starts);
  std::printf("Billed total:         $%.6g ($%.4g on failed attempts, %.1f%%)\n", total,
              failed_cost, total > 0 ? failed_cost / total * 100.0 : 0.0);
  if (res.successes > 0) {
    std::printf("Cost per success:     $%.6g\n",
                total / static_cast<double>(res.successes));
  }
  return 0;
}

// Fleet-level chaos: run the same synthetic trace healthy and with host
// fault injection, and report what the failures cost in availability, tail
// latency and dollars per successful request.
int CmdChaos(Flags& flags) {
  const Platform platform = flags.Choice("platform", "aws", kPlatforms);
  const TraceGenConfig tcfg = ReadTraceFlags(flags);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 7, 0));
  FleetSimConfig chaos = ReadHostFaultFlags(flags, seed);
  chaos.retry.breaker_threshold = flags.Int("breaker-threshold", 0, 0);
  chaos.host_faults.zones = flags.Int("zones", 1, 1);
  chaos.host_faults.zone_outage_mtbf_seconds = flags.Real("zone-outage-mtbf-s", 0.0, 0.0);
  const bool json = flags.Bool("json");
  flags.RejectUnread();
  // Cross-flag checks (mtbf > mttr) only the validator makes, before the
  // trace is generated.
  ThrowIfInvalid("FleetSimConfig", chaos.Validate());

  FleetSimConfig healthy = chaos;
  healthy.host_faults = HostFaultModelConfig{};
  healthy.retry.breaker_threshold = 0;

  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
  const BillingModel billing = MakeBillingModel(platform);
  const FleetResult base = SimulateFleet(trace, billing, healthy);
  const FleetResult res = SimulateFleet(trace, billing, chaos);

  const auto p99_ms = [](std::vector<MicroSecs> lat) {
    if (lat.empty()) {
      return 0.0;
    }
    std::sort(lat.begin(), lat.end());
    const size_t idx = (lat.size() * 99 + 99) / 100 - 1;
    return static_cast<double>(lat[std::min(idx, lat.size() - 1)]) /
           static_cast<double>(kMicrosPerMilli);
  };
  const auto availability = [](const FleetResult& r) {
    return r.requests > 0
               ? static_cast<double>(r.successes) / static_cast<double>(r.requests)
               : 0.0;
  };
  const auto cost_per_success = [](const FleetResult& r) {
    return r.successes > 0 ? r.revenue / static_cast<double>(r.successes) : 0.0;
  };

  if (json) {
    JsonWriter w;
    const auto scenario = [&](const char* key, const FleetResult& r) {
      w.Key(key);
      w.BeginObject();
      w.KV("availability", availability(r));
      w.KV("p99_e2e_ms", p99_ms(r.e2e_latency));
      w.KV("cost_per_success", cost_per_success(r));
      w.KV("revenue_usd", r.revenue);
      w.KV("cold_starts", r.cold_starts);
      w.KV("attempts", r.attempts);
      w.KV("attempt_kills", r.host_fault_attempt_kills);
      w.KV("sandbox_kills", r.host_fault_sandbox_kills);
      w.KV("drain_survivals", r.drain_survivals);
      w.KV("breaker_trips", r.breaker_trips);
      w.EndObject();
    };
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("requests", tcfg.num_requests);
    w.KV("functions", tcfg.num_functions);
    w.KV("seconds", tcfg.window / kMicrosPerSec);
    w.KV("hosts", chaos.host_faults.hosts);
    w.KV("mtbf_seconds", chaos.host_faults.mtbf_seconds);
    w.KV("mttr_seconds", chaos.host_faults.mttr_seconds);
    w.KV("graceful_fraction", chaos.host_faults.graceful_fraction);
    w.KV("max_attempts", chaos.retry.max_attempts);
    w.KV("breaker", chaos.retry.breaker_threshold > 0);
    w.KV("seed", static_cast<int64_t>(seed));
    scenario("healthy", base);
    scenario("chaos", res);
    const double base_cps = cost_per_success(base);
    w.KV("cost_of_chaos",
         base_cps > 0.0 && res.successes > 0 ? cost_per_success(res) / base_cps - 1.0 : 0.0);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("%s: %lld requests / %lld functions over %llds, %d hosts, "
              "MTBF %.0fs, MTTR %.0fs, %.0f%% graceful, %d attempts%s\n",
              billing.platform.c_str(), static_cast<long long>(tcfg.num_requests),
              static_cast<long long>(tcfg.num_functions),
              static_cast<long long>(tcfg.window / kMicrosPerSec),
              chaos.host_faults.hosts, chaos.host_faults.mtbf_seconds,
              chaos.host_faults.mttr_seconds,
              chaos.host_faults.graceful_fraction * 100.0, chaos.retry.max_attempts,
              chaos.retry.breaker_threshold > 0 ? ", breaker on" : "");
  TextTable t({"", "healthy", "chaos"});
  t.AddRow({"availability", FormatPercent(availability(base), 3),
            FormatPercent(availability(res), 3)});
  t.AddRow({"p99 e2e ms", FormatDouble(p99_ms(base.e2e_latency), 1),
            FormatDouble(p99_ms(res.e2e_latency), 1)});
  t.AddRow({"$/success", FormatSci(cost_per_success(base), 3),
            FormatSci(cost_per_success(res), 3)});
  t.AddRow({"cold starts", FormatDouble(static_cast<double>(base.cold_starts), 0),
            FormatDouble(static_cast<double>(res.cold_starts), 0)});
  t.AddRow({"attempts", FormatDouble(static_cast<double>(base.attempts), 0),
            FormatDouble(static_cast<double>(res.attempts), 0)});
  t.AddRow({"attempt kills", "0",
            FormatDouble(static_cast<double>(res.host_fault_attempt_kills), 0)});
  t.AddRow({"sandbox kills", "0",
            FormatDouble(static_cast<double>(res.host_fault_sandbox_kills), 0)});
  t.AddRow({"drain survivals", "0",
            FormatDouble(static_cast<double>(res.drain_survivals), 0)});
  t.AddRow({"breaker trips", "0",
            FormatDouble(static_cast<double>(res.breaker_trips), 0)});
  std::printf("%s", t.Render().c_str());
  const double base_cps = cost_per_success(base);
  if (base_cps > 0.0 && res.successes > 0) {
    std::printf("Cost of chaos: %+.2f%% per successful request\n",
                (cost_per_success(res) / base_cps - 1.0) * 100.0);
  }
  return 0;
}

// Windowed sim-time telemetry over a monitored run: tumbling-window
// time-series JSONL, SLO burn-rate alerts, the run's spans as Chrome
// trace-event JSON (trace.json; load in Perfetto or chrome://tracing), and
// (optionally) an engine flight-recorder profile, plus an ASCII dashboard.
// trace.json, timeseries.jsonl and alerts.jsonl are byte-deterministic for a
// given flag set; profile.json contains host wall-clock phase timings and is
// intentionally not (CI byte-compares must exclude it). The billed-USD
// column is reconciled bit-for-bit against the run's terminal-span totals
// before anything is written; a mismatch is an integrity failure (exit 2).
int CmdMonitor(Flags& flags) {
  const std::string out = flags.Required("out");
  const Sim sim = flags.Choice("sim", "fleet", kSims);
  const Platform platform = flags.Choice("platform", "aws", kPlatforms);
  const MicroSecs window = flags.Seconds("window", 60);
  const MicroSecs slo_latency = flags.Duration("slo", 1'000.0, kMicrosPerMilli, 1);
  SloSpec slo;
  slo.target = flags.Real("slo-target", 0.99, 0.0, 1.0, kOpen);
  slo.fast_windows = flags.Int("fast-windows", 1, 1);
  slo.slow_windows = flags.Int("slow-windows", 12, 1);
  slo.fast_burn = flags.Real("fast-burn", 14.4, 0.0, kInf, kOpen);
  slo.slow_burn = flags.Real("slow-burn", 6.0, 0.0, kInf, kOpen);
  // fast_windows <= slow_windows, checked before the run, not after it by
  // EvaluateSlo.
  ThrowIfInvalid("SloSpec", slo.Validate());
  const bool profile = flags.Bool("profile-engine");
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 7, 0));
  const int64_t window_s = window / kMicrosPerSec;

  TimeSeries series(window);
  slo.objective_id = series.AddLatencyObjective(slo_latency);
  EngineProfiler profiler;
  SpanCollector collector;
  const BillingModel billing = MakeBillingModel(platform);

  std::string scenario;
  // Platform runs only: the sampled warm pool, and the --cotenants host run
  // that follows the reconciliation gate into the same span sink.
  std::vector<TimelineSample> timeline;
  HostSimConfig host;
  std::vector<TenantSpec> cotenants;
  if (sim == Sim::kFleet) {
    // Fleet chaos scenario (the `faascost chaos` shape): host fault domains,
    // client retries, admission defaults — the run where windowed telemetry
    // has something to show.
    const TraceGenConfig tcfg = ReadTraceFlags(flags);
    FleetSimConfig cfg = ReadHostFaultFlags(flags, seed);
    flags.RejectUnread();
    ThrowIfInvalid("FleetSimConfig", cfg.Validate());
    cfg.trace_sink = &collector;
    cfg.timeseries = &series;
    if (profile) {
      cfg.profiler = &profiler;
    }

    if (profile) {
      profiler.BeginPhase("generate_trace");
    }
    const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
    if (profile) {
      profiler.EndPhase();
      profiler.BeginPhase("simulate");
    }
    const FleetResult res = SimulateFleet(trace, billing, cfg);
    if (profile) {
      profiler.EndPhase();
    }
    scenario = "fleet chaos: " + std::to_string(tcfg.num_requests) + " requests / " +
               std::to_string(tcfg.num_functions) + " functions, " +
               std::to_string(cfg.host_faults.hosts) + " hosts, " +
               std::to_string(res.host_fault_sandbox_kills) + " sandbox kills";
  } else {
    PlatformScenario sc =
        ReadPlatformScenario(flags, platform, {.rate = 0.02, .rps = 20.0, .seconds = 600});
    const int n_cotenants = flags.Int("cotenants", 0, 0);
    flags.RejectUnread();
    PlatformSimConfig& cfg = sc.config;
    cfg.trace = &collector;
    cfg.timeseries = &series;
    if (profile) {
      cfg.profiler = &profiler;
      profiler.BeginPhase("simulate");
    }
    PlatformSim sim(cfg, seed);
    const PlatformSimResult res =
        sim.Run(UniformArrivals(sc.rps, sc.duration), PyAesWorkload());
    if (profile) {
      profiler.EndPhase();
      profiler.BeginPhase("price_spans");
    }
    // PlatformSim prices spans post-run; feed the priced spans back into the
    // series so the billed column exists — in span emission order, the order
    // reconciliation buckets in.
    TagPlatformSpanBilling(collector.mutable_spans(), res, cfg, billing);
    IngestBilledSpans(series, collector.spans());
    if (profile) {
      profiler.EndPhase();
    }
    scenario = "platform: " + std::to_string(res.requests.size()) + " requests, " +
               std::to_string(res.attempts.size()) + " attempts, " +
               std::to_string(res.cold_starts) + " cold starts";
    timeline = res.timeline;
    // OS-scheduling layer: co-tenants contending on one shared host for the
    // same span of sim time, as throttle/preempt spans on sched.tenants
    // tracks.
    host.duration = sc.duration;
    host.trace = &collector;
    cotenants.resize(static_cast<size_t>(n_cotenants));
    for (size_t i = 0; i < cotenants.size(); ++i) {
      cotenants[i].quota_fraction = 0.5;
      cotenants[i].demand_fraction = i == 0 ? 1.0 : 0.7;
    }
  }

  // The acceptance gate: per-window billed USD must reproduce the span
  // totals bit-for-bit. A mismatch means telemetry dropped or double-counted
  // money — an integrity failure, same exit code as a tripped invariant.
  const BilledReconciliation rec = ReconcileBilledUsd(series, collector.spans());
  if (!rec.ok) {
    std::fprintf(stderr,
                 "monitor: billed-USD reconciliation FAILED: window %lld, "
                 "series total %.17g vs span total %.17g\n",
                 static_cast<long long>(rec.first_mismatch_window),
                 rec.timeseries_total, rec.span_total);
    return cli::kIntegrityViolation;
  }
  if (!cotenants.empty()) {
    SimulateHost(host, cotenants, seed);
  }

  const std::vector<SloAlert> alerts = EvaluateSlo(series, slo);

  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  if (ec) {
    std::fprintf(stderr, "monitor: cannot create %s: %s\n", out.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string series_path = out + "/timeseries.jsonl";
  const std::string alerts_path = out + "/alerts.jsonl";
  const std::string trace_path = out + "/trace.json";
  if (!WriteTextFile(series_path, TimeSeriesJsonl(series)) ||
      !WriteTextFile(alerts_path, SloAlertsJsonl(alerts)) ||
      !WriteTextFile(trace_path, ChromeTraceJson(collector.spans()))) {
    std::fprintf(stderr, "monitor: cannot write artifacts under %s\n", out.c_str());
    return 1;
  }
  if (profile && !WriteTextFile(out + "/profile.json", profiler.ChromeTraceJson())) {
    std::fprintf(stderr, "monitor: cannot write profile under %s\n", out.c_str());
    return 1;
  }

  // --- Dashboard ---
  std::printf("%s on %s, seed %llu\n", scenario.c_str(), billing.platform.c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("%zu windows of %llds; SLO: %.0fms @ %s (burn %gx/%dw fast, %gx/%dw slow)\n",
              series.window_count(), static_cast<long long>(window_s),
              MicrosToMillis(slo_latency),
              FormatPercent(slo.target, 2).c_str(), slo.fast_burn, slo.fast_windows,
              slo.slow_burn, slo.slow_windows);

  TextTable totals({"metric", "total"});
  int64_t completions = 0;
  int64_t failures = 0;
  int64_t cold = 0;
  for (size_t i = 0; i < series.window_count(); ++i) {
    completions += series.window_at(i).completions;
    failures += series.window_at(i).failures;
    cold += series.window_at(i).cold_starts;
  }
  totals.AddRow({"completions", FormatDouble(static_cast<double>(completions), 0)});
  totals.AddRow({"failures", FormatDouble(static_cast<double>(failures), 0)});
  totals.AddRow({"cold starts", FormatDouble(static_cast<double>(cold), 0)});
  totals.AddRow({"billed USD", FormatSci(series.TotalBilledUsd(), 4)});
  for (int k = 0; k < kWasteKindCount; ++k) {
    const Usd w = series.TotalWasteUsd(static_cast<WasteKind>(k));
    if (std::abs(w) > 0.0) {
      totals.AddRow({std::string("waste: ") + WasteKindName(static_cast<WasteKind>(k)),
                     FormatSci(w, 4)});
    }
  }
  totals.AddRow({"reconciliation", "bitwise ok"});
  std::printf("%s", totals.Render().c_str());

  // Where the run's time and dollars went, by span kind.
  constexpr size_t kKindSlots = static_cast<size_t>(SpanKind::kTransfer) + 1;
  struct KindAgg {
    int64_t count = 0;
    MicroSecs total = 0;
    Usd usd = 0.0;
  };
  KindAgg agg[kKindSlots];
  for (const Span& sp : collector.spans()) {
    KindAgg& a = agg[static_cast<size_t>(sp.kind)];
    ++a.count;
    a.total += sp.duration;
    a.usd += sp.billed_usd;
  }
  TextTable kinds({"span kind", "spans", "total ms", "billed $"});
  for (size_t k = 0; k < kKindSlots; ++k) {
    const KindAgg& a = agg[k];
    if (a.count == 0) {
      continue;
    }
    kinds.AddRow({SpanKindName(static_cast<SpanKind>(k)),
                  FormatDouble(static_cast<double>(a.count), 0),
                  FormatDouble(MicrosToMillis(a.total), 1),
                  std::abs(a.usd) > 0.0 ? FormatSci(a.usd, 3) : std::string("-")});
  }
  std::printf("%s", kinds.Render().c_str());

  if (!timeline.empty()) {
    AsciiChart chart(72, 12);
    chart.SetTitle("warm pool (w) and queue depth (q) over time");
    chart.SetXLabel("sim time (s)");
    chart.SetYLabel("sandboxes / requests");
    ChartSeries warm{"warm pool", 'w', {}};
    ChartSeries queue{"queue depth", 'q', {}};
    for (const TimelineSample& sample : timeline) {
      warm.points.push_back(
          {MicrosToSecs(sample.time), static_cast<double>(sample.ready_instances)});
    }
    for (size_t i = 0; i < series.window_count(); ++i) {
      const double t = static_cast<double>((static_cast<int64_t>(i) + 1) * window_s);
      queue.points.push_back({t, static_cast<double>(series.window_at(i).queue_depth_max)});
    }
    chart.AddSeries(std::move(warm));
    chart.AddSeries(std::move(queue));
    std::printf("%s", chart.Render().c_str());
  }

  if (series.window_count() > 1) {
    AsciiChart chart(72, 12);
    chart.SetTitle("billed ($) and waste (w) USD per window");
    chart.SetXLabel("sim time (s)");
    chart.SetYLabel("USD");
    ChartSeries billed{"billed", '$', {}};
    ChartSeries waste{"waste", 'w', {}};
    for (size_t i = 0; i < series.window_count(); ++i) {
      const double t = static_cast<double>((static_cast<int64_t>(i) + 1) * window_s);
      billed.points.push_back({t, series.window_at(i).billed_usd});
      waste.points.push_back({t, series.window_at(i).WasteTotal()});
    }
    chart.AddSeries(std::move(billed));
    chart.AddSeries(std::move(waste));
    std::printf("%s", chart.Render().c_str());

    AsciiChart lat(72, 12);
    lat.SetTitle("p95 (9) and p50 (5) latency per window");
    lat.SetXLabel("sim time (s)");
    lat.SetYLabel("ms");
    ChartSeries p95{"p95", '9', {}};
    ChartSeries p50{"p50", '5', {}};
    for (size_t i = 0; i < series.window_count(); ++i) {
      const double t = static_cast<double>((static_cast<int64_t>(i) + 1) * window_s);
      p95.points.push_back({t, series.window_at(i).latency_us.Quantile(0.95) / 1000.0});
      p50.points.push_back({t, series.window_at(i).latency_us.Quantile(0.50) / 1000.0});
    }
    lat.AddSeries(std::move(p95));
    lat.AddSeries(std::move(p50));
    std::printf("%s", lat.Render().c_str());
  }

  if (alerts.empty()) {
    std::printf("SLO: no burn-rate transitions\n");
  }
  for (const SloAlert& a : alerts) {
    std::printf("SLO %s: %s at t=%llds (fast %.1fx, slow %.1fx, window $%s)\n",
                a.slo.c_str(), a.firing ? "FIRING" : "resolved",
                static_cast<long long>(a.time / kMicrosPerSec), a.fast_burn,
                a.slow_burn, FormatSci(a.window_billed_usd, 3).c_str());
  }
  if (profile) {
    std::printf("Engine: %lld events, queue peak %lld, %llu RNG draws\n",
                static_cast<long long>(profiler.events_total()),
                static_cast<long long>(profiler.queue_depth_peak()),
                static_cast<unsigned long long>(profiler.rng_draws()));
  }
  std::printf("Wrote %s (%zu windows), %s (%zu alerts) and %s (%zu spans)%s\n",
              series_path.c_str(), series.window_count(), alerts_path.c_str(),
              alerts.size(), trace_path.c_str(), collector.spans().size(),
              profile ? " and profile.json" : "");
  return 0;
}

// ---------------------------------------------------------------------------
// `faascost audit`: integrity-audited simulation runs with deterministic
// checkpoint/resume. The scenario is rebuilt from the same flags on both the
// checkpointing run and the resuming run; the checkpoint's config_hash and
// input_digest reject a resume under a different setup.

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

struct CheckpointPlan {
  std::string path;
  MicroSecs at = 0;     // One-shot checkpoint at this sim time.
  MicroSecs every = 0;  // Rolling checkpoint (atomic overwrite) each interval.
};

// Reads --checkpoint/--checkpoint-at/--checkpoint-every; nullopt when no
// checkpoint is asked for.
std::optional<CheckpointPlan> ReadCheckpointPlan(Flags& flags) {
  const auto path = flags.Text("checkpoint");
  const MicroSecs at = flags.Seconds("checkpoint-at", 0, 0);
  const MicroSecs every = flags.Seconds("checkpoint-every", 0, 0);
  if (!path.has_value()) {
    if (at > 0 || every > 0) {
      throw std::invalid_argument("--checkpoint-at/--checkpoint-every need --checkpoint");
    }
    return std::nullopt;
  }
  if ((at > 0) == (every > 0)) {
    throw std::invalid_argument(
        "--checkpoint needs exactly one of --checkpoint-at N or --checkpoint-every N "
        "(seconds)");
  }
  return CheckpointPlan{*path, at, every};
}

// Verifies a loaded checkpoint belongs to this scenario before any state is
// restored; throws CheckpointError (CLI exit 3) otherwise.
void RequireCheckpointMatch(const LoadedCheckpoint& cp, const std::string& sim,
                            uint64_t config_hash, uint64_t input_digest) {
  if (cp.header.sim != sim) {
    throw CheckpointError("checkpoint is for sim '" + cp.header.sim +
                          "', this run is '" + sim + "'");
  }
  if (cp.header.config_hash != config_hash) {
    throw CheckpointError(
        "checkpoint config_hash " + DigestHex(cp.header.config_hash) +
        " does not match this scenario (" + DigestHex(config_hash) +
        "); rerun with the flags the checkpoint was taken under");
  }
  if (cp.header.input_digest != input_digest) {
    throw CheckpointError("checkpoint input_digest " +
                          DigestHex(cp.header.input_digest) +
                          " does not match the regenerated input trace (" +
                          DigestHex(input_digest) + ")");
  }
}

// Drives an engine (PlatformEngine or FleetEngine: Start/Resume handled by
// the caller) to completion, writing checkpoints per `plan` along the way,
// and returns the end-of-run state digest.
template <typename Engine>
uint64_t RunAudited(Engine& engine, const std::optional<CheckpointPlan>& plan,
                    const std::string& sim, uint64_t seed, uint64_t input_digest) {
  const auto write_checkpoint = [&]() {
    CheckpointHeader header;
    header.sim = sim;
    header.seed = seed;
    header.config_hash = engine.ConfigHash();
    header.input_digest = input_digest;
    header.sim_time_us = engine.now();
    header.state_digest = engine.Digest();
    WriteCheckpoint(plan->path, header, [&](JsonWriter& w) { engine.SaveState(w); });
  };
  if (plan.has_value()) {
    const MicroSecs step = plan->every > 0 ? plan->every : plan->at;
    for (MicroSecs t = engine.now() + step; !engine.done(); t += plan->every) {
      engine.AdvanceUntil(t);
      if (!engine.done()) {
        write_checkpoint();
      }
      if (plan->every == 0) {
        break;  // One-shot --checkpoint-at.
      }
    }
  }
  engine.RunToEnd();
  return engine.Digest();
}

// Shared result line for both sims.
void PrintAuditSummary(bool json, const std::string& sim, const std::string& platform,
                       uint64_t seed, AuditLevel level, const Auditor& auditor,
                       MicroSecs end_time, uint64_t digest, int64_t requests,
                       int64_t successes, int64_t attempts, Usd total_usd,
                       bool resumed) {
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("sim", sim);
    w.KV("platform", platform);
    w.KV("seed", static_cast<int64_t>(seed));
    w.KV("audit_level", AuditLevelName(level));
    w.KV("resumed", resumed);
    w.KV("checks_run", auditor.checks_run());
    w.KV("scans_run", auditor.scans_run());
    w.KV("end_time_us", end_time);
    w.KV("state_digest", DigestHex(digest));
    w.KV("requests", requests);
    w.KV("successes", successes);
    w.KV("attempts", attempts);
    w.KV("billed_usd", total_usd);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return;
  }
  std::printf("%s%s on %s, seed %llu, audit level %s: %lld checks, %lld scans, "
              "0 violations\n",
              sim.c_str(), resumed ? " (resumed)" : "", platform.c_str(),
              static_cast<unsigned long long>(seed), AuditLevelName(level),
              static_cast<long long>(auditor.checks_run()),
              static_cast<long long>(auditor.scans_run()));
  std::printf("Requests: %lld (%lld ok), attempts: %lld, billed $%.6g\n",
              static_cast<long long>(requests), static_cast<long long>(successes),
              static_cast<long long>(attempts), total_usd);
  std::printf("State digest: %s at t=%lldus\n", DigestHex(digest).c_str(),
              static_cast<long long>(end_time));
}

int AuditPlatformSim(Flags& flags, AuditLevel level) {
  const Platform platform = flags.Choice("platform", "aws", kPlatforms);
  PlatformScenario sc =
      ReadPlatformScenario(flags, platform, {.rate = 0.05, .rps = 5.0, .seconds = 120});
  PlatformSimConfig& sim_config = sc.config;
  const auto plan = ReadCheckpointPlan(flags);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 1, 0));
  Auditor auditor(level, flags.Int<int64_t>("scan-cadence", 8192, 0));
  const auto resume = flags.Text("resume");
  const bool json = flags.Bool("json");
  flags.RejectUnread();
  if (level != AuditLevel::kOff) {
    sim_config.auditor = &auditor;
  }

  // The platform checkpoint is self-contained (future arrivals live in the
  // serialized event queue), so there is no external input digest.
  PlatformEngine engine(sim_config, seed);
  if (resume.has_value()) {
    const LoadedCheckpoint cp = LoadCheckpoint(*resume);
    RequireCheckpointMatch(cp, "platform", engine.ConfigHash(), /*input_digest=*/0);
    engine.LoadState(cp.state());
    const uint64_t restored = engine.Digest();
    if (restored != cp.header.state_digest) {
      throw CheckpointError("state digest after restore is " + DigestHex(restored) +
                            ", checkpoint recorded " +
                            DigestHex(cp.header.state_digest));
    }
  } else {
    engine.Start(UniformArrivals(sc.rps, sc.duration), PyAesWorkload());
  }

  const uint64_t digest = RunAudited(engine, plan, "platform", seed, 0);
  const MicroSecs end_time = engine.now();
  const PlatformSimResult res = engine.Finish();

  const BillingModel billing = MakeBillingModel(platform);
  const Usd total = PricePlatformRun(res, sim_config, billing).billed_usd;
  if (level == AuditLevel::kFull) {
    AuditPlatformRun(res, sim_config, seed, auditor, &billing, total);
  } else if (level == AuditLevel::kBasic) {
    AuditPlatformRun(res, sim_config, seed, auditor);
  }

  PrintAuditSummary(json, "platform", billing.platform, seed, level,
                    auditor, end_time, digest,
                    static_cast<int64_t>(res.requests.size()), res.successes,
                    static_cast<int64_t>(res.attempts.size()), total,
                    resume.has_value());
  return 0;
}

int AuditFleetSim(Flags& flags, AuditLevel level) {
  const Platform platform = flags.Choice("platform", "aws", kPlatforms);
  const TraceGenConfig tcfg = ReadTraceFlags(flags);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 7, 0));
  FleetSimConfig fcfg = ReadHostFaultFlags(flags, seed);
  fcfg.retry.breaker_threshold = flags.Int("breaker-threshold", 0, 0);
  const auto plan = ReadCheckpointPlan(flags);
  Auditor auditor(level, flags.Int<int64_t>("scan-cadence", 8192, 0));
  const auto resume = flags.Text("resume");
  const bool json = flags.Bool("json");
  flags.RejectUnread();
  ThrowIfInvalid("FleetSimConfig", fcfg.Validate());
  if (level != AuditLevel::kOff) {
    fcfg.auditor = &auditor;
  }

  // The fleet checkpoint does not embed the request trace; it is regenerated
  // from the same flags and guarded by input_digest.
  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
  const BillingModel billing = MakeBillingModel(platform);
  const uint64_t input_digest = FleetEngine::DigestTrace(trace);

  FleetEngine engine(fcfg);
  if (resume.has_value()) {
    const LoadedCheckpoint cp = LoadCheckpoint(*resume);
    RequireCheckpointMatch(cp, "fleet", engine.ConfigHash(), input_digest);
    engine.Resume(trace, billing, cp.state());
    const uint64_t restored = engine.Digest();
    if (restored != cp.header.state_digest) {
      throw CheckpointError("state digest after restore is " + DigestHex(restored) +
                            ", checkpoint recorded " +
                            DigestHex(cp.header.state_digest));
    }
  } else {
    engine.Start(trace, billing);
  }

  const uint64_t digest = RunAudited(engine, plan, "fleet", seed, input_digest);
  const MicroSecs end_time = engine.now();
  const FleetResult res = engine.Finish();
  if (level != AuditLevel::kOff) {
    AuditFleetRun(res, fcfg, auditor);
  }

  PrintAuditSummary(json, "fleet", billing.platform, seed, level,
                    auditor, end_time, digest, res.requests, res.successes,
                    res.attempts, res.revenue, resume.has_value());
  return 0;
}

// Workflow engine: cost of chains / fan-outs / map-reduces under resilience
// policies (retries, deadline budgets, hedging, async redrives + DLQ, quorum
// joins), optionally with a zonal outage mid-run.
enum class Archetype { kChain, kFanOut, kMapReduce };
constexpr std::pair<const char*, Archetype> kArchetypes[] = {
    {"chain", Archetype::kChain},
    {"fanout", Archetype::kFanOut},
    {"mapreduce", Archetype::kMapReduce}};

int CmdWorkflows(Flags& flags) {
  const Platform platform = flags.Choice("platform", "aws", kPlatforms);
  const Archetype archetype = flags.Choice("archetype", "chain", kArchetypes);
  const int hops = flags.Int("hops", 5, 1);

  WorkflowSimConfig cfg;
  cfg.workflows = flags.Int<int64_t>("workflows", 200, 0);
  cfg.wps = flags.Real("wps", 2.0, 0.0, kInf, kOpen);
  cfg.zones = flags.Int("zones", 1, 1);
  cfg.failure_rate = flags.Real("rate", 0.0, 0.0, 1.0);
  cfg.init_failure_rate = flags.Real("init-fail-rate", cfg.failure_rate / 4.0, 0.0, 1.0);
  cfg.pricing = MakeWorkflowPricing(platform);

  HopSpec proto;
  proto.exec_mean = flags.Duration("exec-ms", 80.0, kMicrosPerMilli, 1);
  proto.timeout = flags.Duration("timeout-ms", 0.0, kMicrosPerMilli);
  proto.async = flags.Bool("async");
  switch (archetype) {
    case Archetype::kChain:
      cfg.dags.push_back(MakeChainDag("chain", hops, proto, cfg.zones > 1));
      break;
    case Archetype::kFanOut:
      cfg.dags.push_back(MakeFanOutDag("fanout", hops, flags.Int("quorum", 0, 0), proto));
      break;
    case Archetype::kMapReduce:
      cfg.dags.push_back(MakeMapReduceDag("mapreduce", hops, proto));
      break;
  }
  const std::string archetype_name = cfg.dags.front().name;

  cfg.policy.retry.max_attempts = flags.Int("retries", 3, 1, kMaxRetryAttempts);
  cfg.policy.retry.breaker_threshold = flags.Int("breaker-threshold", 0, 0);
  cfg.policy.deadline.deadline = flags.Duration("deadline-ms", 0.0, kMicrosPerMilli);
  cfg.policy.deadline.propagate = !flags.Bool("no-propagate");
  cfg.policy.hedge.hedge_after = flags.Duration("hedge-ms", 0.0, kMicrosPerMilli);
  cfg.policy.redrive.max_redrives = flags.Int("async-redrives", 2, 0);

  cfg.outages = ReadOutages(flags);

  const AuditLevel level = flags.Choice("audit-level", "off", kAuditLevels);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 1, 0));
  const bool json = flags.Bool("json");
  flags.RejectUnread();
  Auditor auditor(level);
  if (level != AuditLevel::kOff) {
    cfg.auditor = &auditor;
  }

  const BillingModel billing = MakeBillingModel(platform);
  const WorkflowSimResult res = SimulateWorkflows(cfg, billing, seed);
  if (level != AuditLevel::kOff) {
    AuditWorkflowRun(res, cfg, seed, auditor, billing);
  }

  const WorkflowCounters& c = res.counters;
  const double per_success =
      c.workflows_succeeded > 0
          ? res.usd_total / static_cast<double>(c.workflows_succeeded)
          : 0.0;

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("archetype", archetype_name);
    w.KV("hops", static_cast<int64_t>(hops));
    w.KV("workflows", cfg.workflows);
    w.KV("seed", static_cast<int64_t>(seed));
    w.KV("failure_rate", cfg.failure_rate);
    w.KV("max_attempts", cfg.policy.retry.max_attempts);
    w.KV("deadline_ms", MicrosToMillis(cfg.policy.deadline.deadline));
    w.KV("deadline_propagates", cfg.policy.deadline.propagate);
    w.KV("hedge_ms", MicrosToMillis(cfg.policy.hedge.hedge_after));
    w.KV("succeeded", c.workflows_succeeded);
    w.KV("failed", c.workflows_failed);
    w.KV("degraded_successes", c.degraded_successes);
    w.KV("attempts", static_cast<int64_t>(res.attempts.size()));
    w.KV("dispatched_attempts", c.dispatched_attempts);
    w.KV("client_retries", c.client_retries);
    w.KV("hedges", c.hedges);
    w.KV("hedge_wins", c.hedge_wins);
    w.KV("hedge_losers", c.hedge_losers);
    w.KV("provider_redrives", c.provider_redrives);
    w.KV("dead_letters", c.dead_letters);
    w.KV("upstream_skipped", c.upstream_skipped);
    w.KV("fail_fast", c.fail_fast);
    w.KV("circuit_open", c.circuit_open);
    w.KV("breaker_trips", c.breaker_trips);
    w.KV("cold_starts", c.cold_starts);
    w.KV("outage_killed", c.outage_killed);
    w.KV("stragglers", c.stragglers);
    w.KV("usd_attempts", res.usd_attempts);
    w.KV("usd_transitions", res.usd_transitions);
    w.KV("usd_dlq", res.usd_dlq);
    w.KV("usd_total", res.usd_total);
    w.KV("usd_useful", res.usd_useful);
    w.KV("usd_wasted", res.usd_wasted);
    w.KV("usd_hedge_losers", res.usd_hedge_losers);
    w.KV("usd_stragglers", res.usd_stragglers);
    w.KV("cost_per_successful_workflow", per_success);
    if (level != AuditLevel::kOff) {
      w.KV("audit_level", AuditLevelName(level));
      w.KV("audit_checks", auditor.checks_run());
    }
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::printf("%s %s x%lld hops=%d: %lld ok (%lld degraded), %lld failed\n",
              billing.platform.c_str(), archetype_name.c_str(),
              static_cast<long long>(cfg.workflows), hops,
              static_cast<long long>(c.workflows_succeeded),
              static_cast<long long>(c.degraded_successes),
              static_cast<long long>(c.workflows_failed));
  std::printf("Attempts:             %zu (%lld dispatched, %lld retries, %lld hedges,"
              " %lld redrives)\n",
              res.attempts.size(), static_cast<long long>(c.dispatched_attempts),
              static_cast<long long>(c.client_retries),
              static_cast<long long>(c.hedges),
              static_cast<long long>(c.provider_redrives));
  std::printf("  hedge losers:       %lld   dead letters: %lld   stragglers: %lld\n",
              static_cast<long long>(c.hedge_losers),
              static_cast<long long>(c.dead_letters),
              static_cast<long long>(c.stragglers));
  std::printf("  unbilled rows:      %lld circuit-open, %lld upstream-skipped,"
              " %lld fail-fast\n",
              static_cast<long long>(c.circuit_open),
              static_cast<long long>(c.upstream_skipped),
              static_cast<long long>(c.fail_fast));
  std::printf("Cold starts:          %lld   outage kills: %lld   breaker trips: %lld\n",
              static_cast<long long>(c.cold_starts),
              static_cast<long long>(c.outage_killed),
              static_cast<long long>(c.breaker_trips));
  std::printf("Billed total:         $%.6g (invocations $%.6g + transitions $%.6g"
              " + DLQ $%.6g)\n",
              res.usd_total, res.usd_attempts, res.usd_transitions, res.usd_dlq);
  std::printf("Wasted:               $%.6g (%.1f%%; hedge losers $%.4g,"
              " stragglers $%.4g)\n",
              res.usd_wasted,
              res.usd_total > 0.0 ? res.usd_wasted / res.usd_total * 100.0 : 0.0,
              res.usd_hedge_losers, res.usd_stragglers);
  if (c.workflows_succeeded > 0) {
    std::printf("Cost per success:     $%.6g\n", per_success);
  }
  if (level != AuditLevel::kOff) {
    std::printf("Audit:                %s, %lld checks, ok\n", AuditLevelName(level),
                static_cast<long long>(auditor.checks_run()));
  }
  return 0;
}

// Cost-of-network decomposition: one fleet run with the zone topology and
// the monthly-cumulative transfer meter attached, reported the way the
// provider invoices it — compute, per-request fees, each transfer class on
// its own ladder, and flat-priced storage operations. The report is gated
// on the telemetry contract: per-window transfer USD and billed USD must
// reproduce the span folds bit-for-bit, else the tool exits with the same
// code as a tripped invariant (cli::kIntegrityViolation).
int CmdNetwork(Flags& flags) {
  const Platform platform = flags.Choice("platform", "aws", kPlatforms);
  TraceGenConfig tcfg = ReadTraceFlags(flags);
  const MicroSecs window = flags.Seconds("window", 5);
  // Trace records carry explicit payload hints; the model's own payload
  // distribution stays disabled so sizes are pinned by the trace.
  // Payload means stay below the draw cap, kMaxPayloadBytes (4,194,304 KB).
  constexpr double kMaxPayloadMeanKb = 4e6;
  static_assert(kMaxPayloadMeanKb * 1024.0 < static_cast<double>(kMaxPayloadBytes));
  tcfg.payload_request_mean_kb = flags.Real("req-kb", 16.0, 0.0, kMaxPayloadMeanKb);
  tcfg.payload_response_mean_kb = flags.Real("resp-kb", 64.0, 0.0, kMaxPayloadMeanKb);
  tcfg.failure_rate_mean = flags.Real("rate", 0.0, 0.0, 1.0);
  const auto seed = static_cast<uint64_t>(flags.Int<int64_t>("seed", 7, 0));

  NetworkModelConfig ncfg;
  ncfg.topology.zones = flags.Int("zones", 3, 1);
  ncfg.topology.zones_per_region = flags.Int("zones-per-region", ncfg.topology.zones, 1);
  ncfg.class_a_ops_per_request = flags.Int<int64_t>("class-a", 1, 0);
  ncfg.class_b_ops_per_request = flags.Int<int64_t>("class-b", 2, 0);
  ncfg.outages = ReadOutages(flags);

  FleetSimConfig fcfg;
  fcfg.fault_seed = seed;
  fcfg.retry.max_attempts = flags.Int("retries", 3, 1, kMaxRetryAttempts);
  const bool json = flags.Bool("json");
  flags.RejectUnread();

  NetworkModel net(ncfg, MakeNetworkPricing(platform), seed);
  SpanCollector sink;
  TimeSeries series(window);
  fcfg.network = &net;
  fcfg.trace_sink = &sink;
  fcfg.timeseries = &series;

  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();
  const BillingModel billing = MakeBillingModel(platform);
  const FleetResult res = SimulateFleet(trace, billing, fcfg);
  const NetworkBill& bill = net.bill();

  // Acceptance gates: both USD columns must reproduce their span folds
  // bit-for-bit, window by window, and the meter's transfer count must
  // match the engine's. A mismatch means money was dropped or
  // double-counted between the engine, the meter and telemetry.
  const BilledReconciliation xfer = ReconcileTransferUsd(series, sink.spans());
  if (!xfer.ok) {
    std::fprintf(stderr,
                 "network: transfer-USD reconciliation FAILED: window %lld, "
                 "series total %.17g vs span total %.17g\n",
                 static_cast<long long>(xfer.first_mismatch_window),
                 xfer.timeseries_total, xfer.span_total);
    return cli::kIntegrityViolation;
  }
  const BilledReconciliation priced = ReconcileBilledUsd(series, sink.spans());
  if (!priced.ok) {
    std::fprintf(stderr,
                 "network: billed-USD reconciliation FAILED: window %lld, "
                 "series total %.17g vs span total %.17g\n",
                 static_cast<long long>(priced.first_mismatch_window),
                 priced.timeseries_total, priced.span_total);
    return cli::kIntegrityViolation;
  }
  if (res.net_transfers != bill.transfers || res.net_bytes != series.TotalNetBytes()) {
    std::fprintf(stderr,
                 "network: meter/engine disagree: %lld vs %lld transfers, "
                 "%lld vs %lld bytes\n",
                 static_cast<long long>(res.net_transfers),
                 static_cast<long long>(bill.transfers),
                 static_cast<long long>(res.net_bytes),
                 static_cast<long long>(series.TotalNetBytes()));
    return cli::kIntegrityViolation;
  }

  const Usd compute_usd = res.revenue - res.fee_revenue;
  const Usd network_usd = bill.TotalUsd();
  const Usd total_usd = res.revenue + network_usd;
  const auto gb = [](int64_t bytes) {
    return static_cast<double>(bytes) / static_cast<double>(kBytesPerGb);
  };

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.KV("platform", billing.platform);
    w.KV("requests", tcfg.num_requests);
    w.KV("functions", tcfg.num_functions);
    w.KV("seconds", tcfg.window / kMicrosPerSec);
    w.KV("zones", static_cast<int64_t>(ncfg.topology.zones));
    w.KV("zones_per_region", static_cast<int64_t>(ncfg.topology.zones_per_region));
    w.KV("seed", static_cast<int64_t>(seed));
    w.KV("attempts", res.attempts);
    w.KV("successes", res.successes);
    w.KV("compute_usd", compute_usd);
    w.KV("request_fee_usd", res.fee_revenue);
    w.Key("transfer");
    w.BeginObject();
    for (int c = 0; c < kTransferClassCount; ++c) {
      w.Key(TransferClassName(static_cast<TransferClass>(c)));
      w.BeginObject();
      w.KV("gb", gb(bill.bytes[c]));
      w.KV("usd", bill.usd[c]);
      w.EndObject();
    }
    w.EndObject();
    w.Key("storage_ops");
    w.BeginObject();
    w.KV("class_a_ops", bill.class_a_ops);
    w.KV("class_b_ops", bill.class_b_ops);
    w.KV("usd", bill.ops_usd);
    w.EndObject();
    w.KV("net_transfers", bill.transfers);
    w.KV("rerouted_transfers", bill.rerouted_transfers);
    w.KV("detour_usd", bill.detour_usd);
    w.KV("network_usd", network_usd);
    w.KV("total_usd", total_usd);
    w.KV("network_share", total_usd > 0.0 ? network_usd / total_usd : 0.0);
    w.KV("reconciled", true);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return cli::kOk;
  }

  std::printf("%s: %lld requests / %lld functions over %llds, %d zones "
              "(%d per region), seed %llu\n",
              billing.platform.c_str(), static_cast<long long>(tcfg.num_requests),
              static_cast<long long>(tcfg.num_functions),
              static_cast<long long>(tcfg.window / kMicrosPerSec),
              ncfg.topology.zones, ncfg.topology.zones_per_region,
              static_cast<unsigned long long>(seed));
  TextTable t({"line item", "volume", "USD", "share"});
  const auto share = [&](Usd usd) {
    return total_usd > 0.0 ? FormatPercent(usd / total_usd, 1) : "-";
  };
  t.AddRow({"compute", std::to_string(res.attempts) + " attempts",
            FormatSci(compute_usd, 4), share(compute_usd)});
  t.AddRow({"request fees", std::to_string(res.requests) + " requests",
            FormatSci(res.fee_revenue, 4), share(res.fee_revenue)});
  for (int c = 0; c < kTransferClassCount; ++c) {
    t.AddRow({TransferClassName(static_cast<TransferClass>(c)),
              FormatDouble(gb(bill.bytes[c]), 3) + " GB", FormatSci(bill.usd[c], 4),
              share(bill.usd[c])});
  }
  t.AddRow({"storage ops",
            std::to_string(bill.class_a_ops) + "A/" +
                std::to_string(bill.class_b_ops) + "B",
            FormatSci(bill.ops_usd, 4), share(bill.ops_usd)});
  t.AddRow({"total", FormatDouble(gb(res.net_bytes), 3) + " GB moved",
            FormatSci(total_usd, 4), share(total_usd)});
  std::printf("%s", t.Render().c_str());
  if (bill.rerouted_transfers > 0) {
    std::printf("Outage detours:       %lld transfers rerouted, $%.6g surcharge\n",
                static_cast<long long>(bill.rerouted_transfers), bill.detour_usd);
  }
  std::printf("Network share:        %.2f%% of total spend "
              "(reconciled bit-for-bit against telemetry)\n",
              total_usd > 0.0 ? network_usd / total_usd * 100.0 : 0.0);
  return cli::kOk;
}

int CmdAuditIntegrity(Flags& flags) {
  const Sim sim = flags.Choice("sim", "platform", kSims);
  const AuditLevel level = flags.Choice("audit-level", "full", kAuditLevels);
  return sim == Sim::kPlatform ? AuditPlatformSim(flags, level) : AuditFleetSim(flags, level);
}

// The one list of subcommands and their flags.
int Usage() {
  std::fprintf(
      stderr,
      "usage: faascost <command> [--flag value | --flag] ...\n"
      "Optional flags are in [] with their defaults; a choice's first name is its\n"
      "default. An unknown or unused flag, a stray argument, or a malformed, non-finite\n"
      "or out-of-range value is a usage error (exit 1), raised before anything runs.\n"
      "  platforms   list the platforms P names\n"
      "  bill        bill one request\n"
      "              --platform P [--exec-ms 100] [--cpu-ms 50] [--vcpus 1]\n"
      "              [--mem-mb 1024] [--used-mem-mb MEM/4] [--init-ms 0]\n"
      "  cost        cost a workload on all platforms\n"
      "              [--trace f.csv | --requests 200000 --functions 1000 --seed 1]\n"
      "  rightsize   quantization-aware rightsizing\n"
      "              [--platform aws|gcp] [--cpu-ms 160] [--slo-ms 1000] [--seed 1]\n"
      "              gcp: [--mem-mb 512]\n"
      "  generate    write a synthetic trace\n"
      "              --out f.csv [--requests 100000] [--functions 1000] [--seed 1]\n"
      "  failures    cost of failures and retries on the platform sim\n"
      "              [--platform aws] [--rate 0.05] [--retries 3] [--rps 5]\n"
      "              [--seconds 120] [--timeout-ms 0] [--seed 1] [--json]\n"
      "  chaos       cost of fleet host failures, healthy vs chaos\n"
      "              [--platform aws] [--requests 20000] [--functions 200]\n"
      "              [--seconds 3600] [--hosts 16] [--mtbf-s 3600] [--mttr-s 120]\n"
      "              [--graceful 0.3] [--retries 3] [--breaker-threshold 0]\n"
      "              [--zones 1] [--zone-outage-mtbf-s 0] [--seed 7] [--json]\n"
      "  monitor     windowed telemetry: timeseries.jsonl, alerts.jsonl, trace.json\n"
      "              --out DIR [--sim fleet|platform] [--platform aws] [--window 60]\n"
      "              [--slo 1000] [--slo-target 0.99] [--fast-windows 1]\n"
      "              [--slow-windows 12] [--fast-burn 14.4] [--slow-burn 6]\n"
      "              [--profile-engine] [--seed 7]\n"
      "              fleet: [--requests 20000] [--functions 200] [--seconds 3600]\n"
      "              [--hosts 16] [--mtbf-s 3600] [--mttr-s 120] [--graceful 0.3]\n"
      "              [--retries 3]\n"
      "              platform: [--rate 0.02] [--retries 3] [--rps 20] [--seconds 600]\n"
      "              [--cotenants 0]\n"
      "  audit       integrity-audited run with deterministic checkpoint/resume\n"
      "              [--sim platform|fleet] [--audit-level full|basic|off]\n"
      "              [--platform aws] [--scan-cadence 8192] [--resume f.json] [--json]\n"
      "              [--checkpoint f.json --checkpoint-every S|--checkpoint-at S]\n"
      "              platform: [--rate 0.05] [--retries 3] [--rps 5] [--seconds 120]\n"
      "              [--seed 1]\n"
      "              fleet: [--requests 20000] [--functions 200] [--seconds 3600]\n"
      "              [--hosts 16] [--mtbf-s 3600] [--mttr-s 120] [--graceful 0.3]\n"
      "              [--retries 3] [--breaker-threshold 0] [--seed 7]\n"
      "  workflows   cost of workflow DAGs under resilience policies\n"
      "              [--platform aws] [--archetype chain|fanout|mapreduce] [--hops 5]\n"
      "              fanout: [--quorum 0]\n"
      "              [--workflows 200] [--wps 2] [--rate 0] [--init-fail-rate RATE/4]\n"
      "              [--exec-ms 80] [--timeout-ms 0] [--retries 3]\n"
      "              [--breaker-threshold 0] [--deadline-ms 0] [--no-propagate]\n"
      "              [--hedge-ms 0] [--async] [--async-redrives 2] [--zones 1]\n"
      "              [--outage-zone Z [--outage-start-s 10] [--outage-seconds 30]]\n"
      "              [--audit-level off|basic|full] [--seed 1] [--json]\n"
      "  network     cost-of-network decomposition (compute/requests/egress/ops)\n"
      "              [--platform aws] [--requests 20000] [--functions 200]\n"
      "              [--seconds 3600] [--window 5] [--req-kb 16] [--resp-kb 64]\n"
      "              [--rate 0] [--zones 3] [--zones-per-region ZONES] [--class-a 1]\n"
      "              [--class-b 2] [--retries 3] [--seed 7] [--json]\n"
      "              [--outage-zone Z [--outage-start-s 10] [--outage-seconds 30]]\n");
  return cli::kUsage;
}

constexpr std::pair<const char*, int (*)(Flags&)> kCommands[] = {
    {"platforms", CmdPlatforms}, {"bill", CmdBill},         {"cost", CmdCost},
    {"audit", CmdAuditIntegrity}, {"rightsize", CmdRightsize}, {"generate", CmdGenerate},
    {"failures", CmdFailures},   {"chaos", CmdChaos},       {"monitor", CmdMonitor},
    {"workflows", CmdWorkflows}, {"network", CmdNetwork},
};

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  const auto* command = std::find_if(std::begin(kCommands), std::end(kCommands),
                                     [&](const auto& c) { return cmd == c.first; });
  if (command == std::end(kCommands)) {
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return Usage();
  }
  // Distinct exit codes so scripts (and CI) can tell a simulator-integrity
  // failure from a bad input artifact without parsing stderr.
  try {
    Flags flags(argc, argv, 2);
    return command->second(flags);
  } catch (const IntegrityViolation& e) {
    std::fprintf(stderr, "faascost: integrity violation: %s\n", e.what());
    return cli::kIntegrityViolation;
  } catch (const CheckpointError& e) {
    std::fprintf(stderr, "faascost: checkpoint error: %s\n", e.what());
    return cli::kMalformedArtifact;
  } catch (const JsonParseError& e) {
    std::fprintf(stderr, "faascost: unparseable artifact: %s\n", e.what());
    return cli::kMalformedArtifact;
  } catch (const std::exception& e) {
    // Flag readers, RejectUnread and ThrowIfInvalid throw
    // std::invalid_argument before anything runs; the CLI contract is a
    // one-line stderr message and exit 1, never an uncaught-exception abort.
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return cli::kUsage;
  }
}

}  // namespace
}  // namespace faascost

int main(int argc, char** argv) { return faascost::Main(argc, argv); }
