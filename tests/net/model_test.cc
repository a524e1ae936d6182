// NetworkModel behavior: deterministic payloads, metered transfer charges
// that reconcile bitwise against the bill, and the outage consequences —
// rerouted egress pays cross-zone surcharges through less bandwidth.

#include "src/net/model.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "src/billing/catalog.h"

namespace faascost {
namespace {

constexpr int64_t kGb = kBytesPerGb;

NetworkModelConfig FourZoneConfig() {
  NetworkModelConfig cfg;
  cfg.topology.zones = 4;
  cfg.topology.zones_per_region = 4;
  return cfg;
}

// Flat, free-tier-less pricing so USD expectations are hand-checkable:
// $0.01/GB cross-zone, $0.02/GB cross-region, $0.10/GB egress, free ingress.
NetworkPricing FlatPricing() {
  NetworkPricing n;
  n.transfer[static_cast<size_t>(TransferClass::kIntraZone)] = TieredSchedule::Free();
  n.transfer[static_cast<size_t>(TransferClass::kInterZone)] = TieredSchedule::Flat(0.01);
  n.transfer[static_cast<size_t>(TransferClass::kInterRegion)] = TieredSchedule::Flat(0.02);
  n.transfer[static_cast<size_t>(TransferClass::kInternetEgress)] =
      TieredSchedule::Flat(0.10);
  n.transfer[static_cast<size_t>(TransferClass::kInternetIngress)] =
      TieredSchedule::Free();
  n.class_a_per_op = 5e-6;
  n.class_b_per_op = 4e-7;
  return n;
}

TEST(NetworkModelTest, RejectsInvalidConfig) {
  NetworkModelConfig cfg = FourZoneConfig();
  cfg.outages.push_back({9, 0, 1});  // Zone 9 does not exist.
  EXPECT_THROW(NetworkModel(cfg, FlatPricing(), 1), std::invalid_argument);
}

TEST(NetworkModelTest, IntraZoneIsFreeButCounted) {
  NetworkModel net(FourZoneConfig(), FlatPricing(), 1);
  const TransferCharge c = net.Transfer(2, 2, kGb, 0);
  EXPECT_EQ(c.usd, 0.0);
  EXPECT_GT(c.time, 0);
  EXPECT_EQ(net.bill().bytes[static_cast<size_t>(TransferClass::kIntraZone)], kGb);
}

TEST(NetworkModelTest, EgressChargesEveryHopItsClass) {
  NetworkModel net(FourZoneConfig(), FlatPricing(), 1);
  // z2 -> internet: two cross-zone ring hops to z0, then the uplink.
  const TransferCharge c = net.Transfer(2, NetworkModel::kInternet, kGb, 0);
  EXPECT_DOUBLE_EQ(c.usd, 0.01 * 2.0 + 0.10 * 1.0);
  EXPECT_FALSE(c.rerouted);
  EXPECT_EQ(c.detour_usd, 0.0);
  // Ingress back is free but metered.
  const TransferCharge in = net.Transfer(NetworkModel::kInternet, 2, kGb, 0);
  EXPECT_DOUBLE_EQ(in.usd, 0.01 * 2.0);  // Ring hops still bill; ingress free.
  EXPECT_EQ(net.bill().bytes[static_cast<size_t>(TransferClass::kInternetIngress)], kGb);
}

TEST(NetworkModelTest, ZeroBytesMoveNothing) {
  NetworkModel net(FourZoneConfig(), FlatPricing(), 1);
  const TransferCharge c = net.Transfer(0, 1, 0, 0);
  EXPECT_EQ(c.usd, 0.0);
  EXPECT_EQ(c.time, 0);
  EXPECT_EQ(net.bill().transfers, 0);
  EXPECT_EQ(net.TransferTime(0, 1, 0, 0), 0);
}

TEST(NetworkModelTest, MarginalChargesFoldToBillBitwise) {
  NetworkModel net(FourZoneConfig(), MakeNetworkPricing(Platform::kAwsLambda), 1);
  Usd folded = 0.0;
  for (int i = 0; i < 200; ++i) {
    const int64_t big = static_cast<int64_t>(i + 1) * 64 * 1024 * 1024;
    folded += net.Transfer(i % 4, (i * 7) % 4, big, i * 1000).usd;
    folded += net.Transfer(i % 4, NetworkModel::kInternet,
                           static_cast<int64_t>(i + 1) * 1024 * 1024, i * 1000).usd;
  }
  folded += net.MeterOps(1000, 5000);
  // Bitwise: the bill is the same fold in the same order.
  const double total = net.bill().TotalUsd();
  EXPECT_EQ(std::memcmp(&folded, &total, sizeof(double)), 0);
}

TEST(NetworkModelTest, OutageReroutesOwnEgressWithSurcharge) {
  NetworkModelConfig cfg = FourZoneConfig();
  const MicroSecs kStart = 1'000'000;
  const MicroSecs kDur = 1'000'000;
  cfg.outages.push_back({0, kStart, kDur});
  NetworkModel net(cfg, FlatPricing(), 1);

  // Healthy: z0 egresses straight up its primary uplink.
  const TransferCharge before = net.Transfer(0, NetworkModel::kInternet, kGb, 0);
  EXPECT_DOUBLE_EQ(before.usd, 0.10);
  EXPECT_FALSE(before.rerouted);

  // During the outage: z0's uplink is dark, traffic detours over the ring
  // to z1's backup uplink — one cross-zone hop it never paid before.
  const TransferCharge during = net.Transfer(0, NetworkModel::kInternet, kGb, kStart);
  EXPECT_TRUE(during.rerouted);
  EXPECT_DOUBLE_EQ(during.usd, 0.01 + 0.10);
  EXPECT_DOUBLE_EQ(during.detour_usd, 0.01);

  // Bandwidth consequence: the same payload takes longer through the thin
  // backup pipe.
  EXPECT_GT(net.TransferTime(0, NetworkModel::kInternet, kGb, kStart),
            net.TransferTime(0, NetworkModel::kInternet, kGb, 0));

  // After the window the baseline route (and price) is back.
  const TransferCharge after =
      net.Transfer(0, NetworkModel::kInternet, kGb, kStart + kDur);
  EXPECT_FALSE(after.rerouted);
  EXPECT_DOUBLE_EQ(after.usd, 0.10);

  EXPECT_EQ(net.bill().rerouted_transfers, 1);
  EXPECT_DOUBLE_EQ(net.bill().detour_usd, 0.01);
  EXPECT_TRUE(net.InOutage(0, kStart));
  EXPECT_FALSE(net.InOutage(0, kStart + kDur));
  EXPECT_FALSE(net.InOutage(1, kStart));
}

TEST(NetworkModelTest, ReroutedCheaperPathClampsDetourAtZero) {
  NetworkModelConfig cfg = FourZoneConfig();
  cfg.outages.push_back({0, 0, 1'000'000});
  NetworkModel net(cfg, FlatPricing(), 1);
  // z2's baseline egress pays two ring hops to reach z0; during the outage
  // it reaches z1's backup in one — rerouted, but cheaper, so no surcharge.
  const TransferCharge c = net.Transfer(2, NetworkModel::kInternet, kGb, 0);
  EXPECT_TRUE(c.rerouted);
  EXPECT_DOUBLE_EQ(c.usd, 0.01 + 0.10);
  EXPECT_EQ(c.detour_usd, 0.0);
}

TEST(NetworkModelTest, PayloadsAreDeterministicPerAttempt) {
  NetworkModelConfig cfg = FourZoneConfig();
  cfg.payload.request_mean_kb = 128.0;
  cfg.payload.response_mean_kb = 512.0;
  NetworkModel a(cfg, FlatPricing(), 42);
  NetworkModel b(cfg, FlatPricing(), 42);

  const AttemptPayload p1 = a.PayloadFor(7, 1000, 0, 0, 0, true);
  EXPECT_GT(p1.request_bytes, 0);
  EXPECT_GT(p1.response_bytes, 0);
  // Pure function of (function, request, attempt) — same across instances
  // and call orders.
  b.PayloadFor(3, 5, 1, 0, 0, true);
  const AttemptPayload p2 = b.PayloadFor(7, 1000, 0, 0, 0, true);
  EXPECT_EQ(p1.request_bytes, p2.request_bytes);
  EXPECT_EQ(p1.response_bytes, p2.response_bytes);
  // Retries redraw their own sizes.
  const AttemptPayload retry = a.PayloadFor(7, 1000, 1, 0, 0, true);
  EXPECT_NE(p1.request_bytes, retry.request_bytes);
  // Different seeds decorrelate.
  NetworkModel c(cfg, FlatPricing(), 43);
  EXPECT_NE(c.PayloadFor(7, 1000, 0, 0, 0, true).request_bytes, p1.request_bytes);
}

TEST(NetworkModelTest, PayloadHintsAndErrorsOverrideDraws) {
  NetworkModelConfig cfg = FourZoneConfig();
  cfg.payload.request_mean_kb = 128.0;
  cfg.payload.response_mean_kb = 512.0;
  cfg.error_response_bytes = 333;
  NetworkModel net(cfg, FlatPricing(), 42);
  // Trace-record hints win over the model's draws.
  const AttemptPayload hinted = net.PayloadFor(7, 0, 0, 4096, 8192, true);
  EXPECT_EQ(hinted.request_bytes, 4096);
  EXPECT_EQ(hinted.response_bytes, 8192);
  // A failed attempt answers with the error body, whatever was drawn.
  const AttemptPayload failed = net.PayloadFor(7, 0, 0, 4096, 8192, false);
  EXPECT_EQ(failed.response_bytes, 333);
  // Disabled model (mean 0) with no hints moves nothing.
  NetworkModel off(FourZoneConfig(), FlatPricing(), 42);
  const AttemptPayload none = off.PayloadFor(7, 0, 0, 0, 0, true);
  EXPECT_EQ(none.request_bytes, 0);
  EXPECT_EQ(none.response_bytes, 0);
}

TEST(NetworkModelTest, PayloadDrawsClampToTheCap) {
  NetworkModelConfig cfg = FourZoneConfig();
  cfg.payload.request_mean_kb = 1e300;
  cfg.payload.response_mean_kb = 1e300;
  NetworkModel net(cfg, FlatPricing(), 42);
  for (int64_t req = 0; req < 50; ++req) {
    const AttemptPayload p = net.PayloadFor(7, req, 0, 0, 0, true);
    ASSERT_EQ(p.request_bytes, kMaxPayloadBytes);
    ASSERT_EQ(p.response_bytes, kMaxPayloadBytes);
  }
}

TEST(NetworkModelTest, RequestOpsBundleIsFlatPriced) {
  NetworkModelConfig cfg = FourZoneConfig();
  cfg.class_a_ops_per_request = 2;
  cfg.class_b_ops_per_request = 10;
  NetworkModel net(cfg, FlatPricing(), 1);
  EXPECT_DOUBLE_EQ(net.MeterRequestOps(), 2 * 5e-6 + 10 * 4e-7);
  EXPECT_EQ(net.bill().class_a_ops, 2);
  EXPECT_EQ(net.bill().class_b_ops, 10);
}

TEST(NetworkModelTest, ZoneOfIsStableAndInRange) {
  NetworkModel net(FourZoneConfig(), FlatPricing(), 1);
  for (int64_t id = 0; id < 100; ++id) {
    const int z = net.ZoneOf(id);
    EXPECT_GE(z, 0);
    EXPECT_LT(z, 4);
    EXPECT_EQ(z, net.ZoneOf(id));
  }
}

}  // namespace
}  // namespace faascost
