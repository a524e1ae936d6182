// MeterPlatformNetwork: post-run routing of platform attempts through the
// zone topology — engine results untouched except each request's client-side
// completion and e2e latency, bitwise transfer reconciliation, waste
// attribution, and a metered result that still passes a full audit.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/billing/catalog.h"
#include "src/core/observe.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/net/model.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;

bool BitEq(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

constexpr uint64_t kSeed = 11;

PlatformSimConfig PlatformConfig(double crash_prob) {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1'769.0);
  cfg.faults.crash_prob = crash_prob;
  cfg.retry.max_attempts = 3;
  return cfg;
}

PlatformSimResult RunPlatform(double crash_prob = 0.0) {
  PlatformSim sim(PlatformConfig(crash_prob), kSeed);
  return sim.Run(UniformArrivals(6.0, 40 * kSec), PyAesWorkload());
}

NetworkModel MakeNet() {
  NetworkModelConfig nc;
  nc.topology.zones = 4;
  nc.topology.zones_per_region = 4;
  // Drawn payload sizes: platform attempts carry no trace-record hints.
  nc.payload.request_mean_kb = 8.0;
  nc.payload.response_mean_kb = 32.0;
  nc.class_a_ops_per_request = 1;
  nc.class_b_ops_per_request = 2;
  return NetworkModel(nc, MakeNetworkPricing(Platform::kAwsLambda), kSeed);
}

TEST(PlatformNet, MeteringExtendsOnlyClientLatency) {
  const PlatformSimResult base = RunPlatform();
  PlatformSimResult metered = RunPlatform();
  NetworkModel net = MakeNet();
  const NetworkTotals totals =
      MeterPlatformNetwork(net, &metered, /*spans=*/nullptr, /*series=*/nullptr);

  EXPECT_GT(totals.transfers, 0);
  EXPECT_GT(totals.bytes, 0);
  EXPECT_GT(totals.transfer_usd, 0.0);
  EXPECT_GT(totals.ops_usd, 0.0);
  EXPECT_TRUE(BitEq(totals.detour_usd, 0.0));  // No outages configured.
  EXPECT_EQ(totals.transfers, net.bill().transfers);

  // The engine's attempt timeline is untouched; only the client-observed
  // request latency absorbs the transfer time.
  ASSERT_EQ(base.attempts.size(), metered.attempts.size());
  for (size_t i = 0; i < base.attempts.size(); ++i) {
    EXPECT_EQ(base.attempts[i].end, metered.attempts[i].end) << i;
    EXPECT_EQ(base.attempts[i].dispatched, metered.attempts[i].dispatched) << i;
  }
  ASSERT_EQ(base.requests.size(), metered.requests.size());
  int64_t grew = 0;
  for (size_t i = 0; i < base.requests.size(); ++i) {
    ASSERT_GE(metered.requests[i].e2e_latency, base.requests[i].e2e_latency) << i;
    grew += (metered.requests[i].e2e_latency > base.requests[i].e2e_latency) ? 1 : 0;
    // Completion moves by the same transfer time.
    EXPECT_EQ(metered.requests[i].completion - base.requests[i].completion,
              metered.requests[i].e2e_latency - base.requests[i].e2e_latency)
        << i;
  }
  EXPECT_GT(grew, 0);
}

// Metering first and auditing after works: the audit's
// platform.request_conservation check (e2e == completion - arrival) holds on
// a metered result, retries and failed attempts included.
TEST(PlatformNet, MeteredResultPassesAFullAudit) {
  PlatformSimResult res = RunPlatform(/*crash_prob=*/0.05);
  ASSERT_GT(res.retries, 0);
  NetworkModel net = MakeNet();
  MeterPlatformNetwork(net, &res, /*spans=*/nullptr, /*series=*/nullptr);
  Auditor auditor(AuditLevel::kFull);
  EXPECT_NO_THROW(AuditPlatformRun(res, PlatformConfig(0.05), kSeed, auditor));
  EXPECT_GT(auditor.checks_run(), 0);
}

TEST(PlatformNet, TransferUsdReconcilesBitwiseAgainstTelemetry) {
  PlatformSimResult res = RunPlatform(/*crash_prob=*/0.05);
  NetworkModel net = MakeNet();
  SpanLog spans;
  TimeSeries series(5 * kSec);
  const NetworkTotals totals = MeterPlatformNetwork(net, &res, &spans, &series);

  const BilledReconciliation xfer = ReconcileTransferUsd(series, spans);
  EXPECT_TRUE(xfer.ok) << "first mismatch window " << xfer.first_mismatch_window;

  // Span fold == totals fold, bitwise: both walk the same marginal charges
  // in emission order.
  Usd span_fold = 0.0;
  int64_t span_bytes = 0;
  for (const Span& sp : spans) {
    ASSERT_EQ(sp.kind, SpanKind::kTransfer);
    EXPECT_FALSE(sp.terminal);
    span_fold += sp.billed_usd;
    span_bytes += sp.ref;
  }
  EXPECT_TRUE(BitEq(span_fold, totals.transfer_usd));
  EXPECT_EQ(span_bytes, totals.bytes);

  // Crashing attempts moved bytes for nothing: failed-egress waste shows up.
  EXPECT_GT(series.TotalWasteUsd(WasteKind::kFailedEgress), 0.0);
}

TEST(PlatformNet, SameSeedSameCharges) {
  PlatformSimResult a = RunPlatform(0.05);
  PlatformSimResult b = RunPlatform(0.05);
  NetworkModel na = MakeNet();
  NetworkModel nb = MakeNet();
  const NetworkTotals ta = MeterPlatformNetwork(na, &a, nullptr, nullptr);
  const NetworkTotals tb = MeterPlatformNetwork(nb, &b, nullptr, nullptr);
  EXPECT_EQ(ta.transfers, tb.transfers);
  EXPECT_EQ(ta.bytes, tb.bytes);
  EXPECT_TRUE(BitEq(ta.transfer_usd, tb.transfer_usd));
  EXPECT_TRUE(BitEq(ta.ops_usd, tb.ops_usd));
}

}  // namespace
}  // namespace faascost
