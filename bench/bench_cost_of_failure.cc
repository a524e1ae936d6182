// Cost of failure: how much of a serverless bill is spent on invocations
// that never succeed, and how client retries amplify it.
//
// Platforms bill failed attempts too — AWS bills crashed executions up to
// the abort point and timed-out ones through the full limit, and the
// per-invocation fee is charged regardless of outcome. On top of that, a
// crash takes its sandbox down, so the retry pays a fresh cold start
// (billed turnaround time on AWS). This bench sweeps the per-attempt
// failure rate under fixed retry policies on both serving models and
// reports the billable inflation: cost per *successful* request,
// normalized to the zero-failure run.
//
// Pass --json for machine-readable output (one object with per-section
// arrays) instead of the human tables.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/billing/catalog.h"
#include "src/common/json_writer.h"
#include "src/common/table.h"
#include "src/core/observe.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"

namespace faascost {
namespace {

struct RunStats {
  double cost_per_success = 0.0;
  Usd total = 0.0;
  Usd failed_cost = 0.0;
  int64_t successes = 0;
  int64_t attempts = 0;
  int cold_starts = 0;
};

RunStats RunOnce(PlatformSimConfig config, const BillingModel& billing, double rate,
                 int max_attempts, uint64_t seed) {
  config.faults.crash_prob = rate;
  config.faults.init_failure_prob = rate / 4.0;
  config.retry.max_attempts = max_attempts;
  PlatformSim sim(config, seed);
  const PlatformSimResult res =
      sim.Run(UniformArrivals(4.0, 180 * kMicrosPerSec), PyAesWorkload());
  RunStats out;
  const ProvenanceTotals priced = PricePlatformRun(res, config, billing);
  out.total = priced.billed_usd;
  out.failed_cost = priced.failed_usd;
  out.successes = res.successes;
  out.attempts = static_cast<int64_t>(res.attempts.size());
  out.cold_starts = res.cold_starts;
  if (out.successes > 0) {
    out.cost_per_success = out.total / static_cast<double>(out.successes);
  }
  return out;
}

struct SweepRow {
  std::string model;
  int max_attempts = 1;
  double rate = 0.0;
  RunStats stats;
  double inflation = 0.0;
};

std::vector<SweepRow> SweepModel(const char* title, const char* key,
                                 const PlatformSimConfig& base, const BillingModel& billing,
                                 uint64_t seed, bool json) {
  std::vector<SweepRow> rows;
  if (!json) {
    PrintHeader(title);
  }
  for (const int max_attempts : {1, 3}) {
    TextTable table({"failure rate", "attempts", "ok", "cold starts", "billed $",
                     "failed-$ share", "$/success", "inflation"});
    double baseline = 0.0;
    bool have_baseline = false;
    for (const double rate : {0.0, 0.02, 0.05, 0.10, 0.20}) {
      SweepRow row;
      row.model = key;
      row.max_attempts = max_attempts;
      row.rate = rate;
      row.stats = RunOnce(base, billing, rate, max_attempts, seed);
      const RunStats& s = row.stats;
      if (!have_baseline) {
        baseline = s.cost_per_success;  // First sweep point is fault-free.
        have_baseline = true;
      }
      row.inflation =
          baseline > 0.0 && s.cost_per_success > 0.0 ? s.cost_per_success / baseline : 0.0;
      rows.push_back(row);
      table.AddRow({FormatPercent(rate, 0), FormatDouble(s.attempts, 0),
                    FormatDouble(static_cast<double>(s.successes), 0),
                    FormatDouble(s.cold_starts, 0), FormatDouble(s.total, 6),
                    FormatPercent(s.total > 0 ? s.failed_cost / s.total : 0.0, 1),
                    FormatSci(s.cost_per_success, 3),
                    s.successes > 0 ? FormatDouble(row.inflation, 3) + "x"
                                    : std::string("n/a")});
    }
    if (!json) {
      std::printf("\nRetry policy: %d attempt(s)%s\n", max_attempts,
                  max_attempts > 1 ? " with exponential backoff + full jitter" : "");
      std::printf("%s", table.Render().c_str());
    }
  }
  return rows;
}

void WriteSweepJson(const std::vector<SweepRow>& rows, JsonWriter* w) {
  for (const SweepRow& r : rows) {
    w->BeginObject();
    w->KV("model", r.model);
    w->KV("max_attempts", r.max_attempts);
    w->KV("failure_rate", r.rate);
    w->KV("attempts", r.stats.attempts);
    w->KV("successes", r.stats.successes);
    w->KV("cold_starts", r.stats.cold_starts);
    w->KV("billed_usd", r.stats.total);
    w->KV("failed_usd", r.stats.failed_cost);
    w->KV("cost_per_success", r.stats.cost_per_success);
    w->KV("inflation", r.inflation);
    w->EndObject();
  }
}

// Process death on a shared sandbox: when a crash kills every co-resident
// request, retried batches die together and retries turn a moderate failure
// rate into a storm of billed-but-failed attempts. With `w` set, appends the
// rows to the open "process_death" array instead of printing a table.
void ProcessDeathTable(JsonWriter* w) {
  const BillingModel billing = MakeBillingModel(Platform::kGcpCloudRunFunctions);
  TextTable table({"crash isolation", "retries", "attempts", "ok", "cold starts",
                   "billed $", "failed-$ share"});
  for (const bool kills : {false, true}) {
    for (const int max_attempts : {1, 3}) {
      PlatformSimConfig cfg = GcpPlatform(1.0, 1'024.0);
      cfg.faults.crash_kills_sandbox = kills;
      const RunStats s = RunOnce(cfg, billing, /*rate=*/0.05, max_attempts, /*seed=*/22);
      if (w != nullptr) {
        w->BeginObject();
        w->KV("crash_kills_sandbox", kills);
        w->KV("max_attempts", max_attempts);
        w->KV("attempts", s.attempts);
        w->KV("successes", s.successes);
        w->KV("cold_starts", s.cold_starts);
        w->KV("billed_usd", s.total);
        w->KV("failed_usd", s.failed_cost);
        w->EndObject();
        continue;
      }
      table.AddRow({kills ? "process death" : "request only",
                    FormatDouble(max_attempts, 0), FormatDouble(s.attempts, 0),
                    FormatDouble(static_cast<double>(s.successes), 0),
                    FormatDouble(s.cold_starts, 0), FormatDouble(s.total, 6),
                    FormatPercent(s.total > 0 ? s.failed_cost / s.total : 0.0, 1)});
    }
  }
  if (w != nullptr) {
    return;
  }
  PrintHeader("Process death amplification (GCP multi-concurrency, crash kills sandbox)");
  std::printf("%s", table.Render().c_str());
}

// What a single failed invocation is billed across the catalog: a crash at
// 40% of a 200 ms execution, a timeout cut at a 1 s limit, and a 429.
// With `w` set, appends to the open "failure_billing" array instead.
void FailureBillingTable(JsonWriter* w) {
  TextTable table({"Platform", "ok 200ms $", "crash@80ms $", "timeout@1s $", "429 $"});
  for (Platform p : AllPlatforms()) {
    const BillingModel m = MakeBillingModel(p);
    RequestRecord ok;
    ok.exec_duration = 200 * kMicrosPerMilli;
    ok.cpu_time = 160 * kMicrosPerMilli;
    ok.alloc_vcpus = 1.0;
    ok.alloc_mem_mb = 1'769.0;
    ok.used_mem_mb = 512.0;

    RequestRecord crash = ok;
    crash.outcome = Outcome::kCrash;
    crash.exec_duration = 80 * kMicrosPerMilli;  // Crashed at 40%.
    crash.cpu_time = 64 * kMicrosPerMilli;

    RequestRecord timeout = ok;
    timeout.outcome = Outcome::kTimeout;
    timeout.exec_duration = 1'000 * kMicrosPerMilli;  // Ran through the limit.
    timeout.cpu_time = 800 * kMicrosPerMilli;

    RequestRecord rejected = ok;
    rejected.outcome = Outcome::kRejected;
    rejected.exec_duration = 0;
    rejected.cpu_time = 0;

    if (w != nullptr) {
      w->BeginObject();
      w->KV("platform", m.platform);
      w->KV("ok_usd", ComputeInvoice(m, ok).total);
      w->KV("crash_usd", ComputeInvoice(m, crash).total);
      w->KV("timeout_usd", ComputeInvoice(m, timeout).total);
      w->KV("rejected_usd", ComputeInvoice(m, rejected).total);
      w->EndObject();
      continue;
    }
    table.AddRow({m.platform, FormatSci(ComputeInvoice(m, ok).total, 3),
                  FormatSci(ComputeInvoice(m, crash).total, 3),
                  FormatSci(ComputeInvoice(m, timeout).total, 3),
                  FormatSci(ComputeInvoice(m, rejected).total, 3)});
  }
  if (w != nullptr) {
    return;
  }
  PrintHeader("What one failed invocation costs (1 vCPU / 1769 MB class)");
  std::printf("%s", table.Render().c_str());
}

}  // namespace
}  // namespace faascost

int main(int argc, char** argv) {
  using namespace faascost;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    }
  }
  const auto aws = SweepModel(
      "Cost of failure: AWS Lambda (single-concurrency, turnaround billing)", "aws",
      AwsLambdaPlatform(1.0, 1'769.0), MakeBillingModel(Platform::kAwsLambda),
      /*seed=*/21, json);
  // For the multi-concurrency sweep, crashes abort only their own request;
  // process death (a crash killing every co-resident request) is studied
  // separately below, because with retries it compounds into a retry storm
  // rather than a smooth per-rate trend.
  PlatformSimConfig gcp = GcpPlatform(1.0, 1'024.0);
  gcp.faults.crash_kills_sandbox = false;
  const auto gcp_rows = SweepModel("Cost of failure: GCP Cloud Run functions "
                                   "(multi-concurrency)",
                                   "gcp", gcp,
                                   MakeBillingModel(Platform::kGcpCloudRunFunctions),
                                   /*seed=*/22, json);
  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("sweeps");
    w.BeginArray();
    WriteSweepJson(aws, &w);
    WriteSweepJson(gcp_rows, &w);
    w.EndArray();
    w.Key("process_death");
    w.BeginArray();
    ProcessDeathTable(&w);
    w.EndArray();
    w.Key("failure_billing");
    w.BeginArray();
    FailureBillingTable(&w);
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  ProcessDeathTable(nullptr);
  FailureBillingTable(nullptr);
  std::printf(
      "\nReading: 'inflation' is billed cost per successful request relative to\n"
      "the zero-failure run. Retries recover availability but multiply billed\n"
      "attempts; crashes also destroy sandboxes, so retried work re-pays cold\n"
      "starts (billed as turnaround time on AWS/GCP/IBM).\n");
  return 0;
}
