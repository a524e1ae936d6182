// Canonical state digests. The goldened values pin the end-of-run digest of
// fixed-seed chaos scenarios: any change to simulator behavior, state
// canonicalization, or the Archive walk shows up here as a digest change and
// must be a conscious decision (update the constant in the same commit that
// changes behavior). Plus unit coverage of the StateDigest primitive's
// canonicalization rules.

#include <gtest/gtest.h>

#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/integrity/digest.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;

// --- StateDigest primitive ---

TEST(StateDigestUnit, EmptyIsOffsetBasis) {
  StateDigest d;
  EXPECT_EQ(d.value(), kFnvOffsetBasis);
}

TEST(StateDigestUnit, OrderSensitive) {
  StateDigest ab;
  ab.MixU64(1);
  ab.MixU64(2);
  StateDigest ba;
  ba.MixU64(2);
  ba.MixU64(1);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(StateDigestUnit, StringsAreLengthPrefixed) {
  // "ab" + "c" must not collide with "a" + "bc".
  StateDigest d1;
  d1.MixStr("ab");
  d1.MixStr("c");
  StateDigest d2;
  d2.MixStr("a");
  d2.MixStr("bc");
  EXPECT_NE(d1.value(), d2.value());
}

TEST(StateDigestUnit, DoublesHashByBitPattern) {
  StateDigest pos;
  pos.MixDouble(0.0);
  StateDigest neg;
  neg.MixDouble(-0.0);
  EXPECT_NE(pos.value(), neg.value());
}

uint64_t Finish(const UnorderedDigest& u) {
  StateDigest parent;
  u.FinishInto(&parent);
  return parent.value();
}

TEST(StateDigestUnit, UnorderedDigestIgnoresOrderButNotMultiplicity) {
  UnorderedDigest u1;
  u1.Add(11);
  u1.Add(22);
  UnorderedDigest u2;
  u2.Add(22);
  u2.Add(11);
  EXPECT_EQ(Finish(u1), Finish(u2));

  UnorderedDigest twice;
  twice.Add(11);
  twice.Add(11);
  UnorderedDigest once;
  once.Add(11);
  EXPECT_NE(Finish(twice), Finish(once));
}

// --- Engine digests ---

PlatformSimConfig ChaosPlatformConfig() {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1769.0);
  cfg.faults.crash_prob = 0.05;
  cfg.faults.init_failure_prob = 0.0125;
  cfg.retry.max_attempts = 3;
  return cfg;
}

uint64_t PlatformEndDigest(uint64_t seed) {
  PlatformEngine engine(ChaosPlatformConfig(), seed);
  engine.Start(UniformArrivals(20.0, 30 * kSec), PyAesWorkload());
  engine.RunToEnd();
  return engine.Digest();
}

uint64_t FleetEndDigest(uint64_t seed) {
  FleetSimConfig cfg;
  cfg.fault_seed = seed;
  cfg.retry.max_attempts = 3;
  cfg.host_faults.hosts = 16;
  cfg.host_faults.mtbf_seconds = 600.0;
  cfg.host_faults.mttr_seconds = 60.0;
  cfg.host_faults.graceful_fraction = 0.3;

  TraceGenConfig tcfg;
  tcfg.num_requests = 4'000;
  tcfg.num_functions = 100;
  tcfg.window = 600 * kSec;
  const std::vector<RequestRecord> trace = TraceGenerator(tcfg, seed).Generate();

  FleetEngine engine(cfg);
  engine.Start(trace, MakeBillingModel(Platform::kAwsLambda));
  engine.RunToEnd();
  return engine.Digest();
}

TEST(EngineDigest, DeterministicAcrossRuns) {
  EXPECT_EQ(PlatformEndDigest(1), PlatformEndDigest(1));
  EXPECT_EQ(FleetEndDigest(7), FleetEndDigest(7));
}

TEST(EngineDigest, SeedChangesDigest) {
  EXPECT_NE(PlatformEndDigest(1), PlatformEndDigest(2));
  EXPECT_NE(FleetEndDigest(7), FleetEndDigest(8));
}

TEST(EngineDigest, DigestIsIdempotent) {
  PlatformEngine engine(ChaosPlatformConfig(), 1);
  engine.Start(UniformArrivals(20.0, 30 * kSec), PyAesWorkload());
  engine.AdvanceUntil(10 * kSec);
  EXPECT_EQ(engine.Digest(), engine.Digest());
}

TEST(EngineDigest, ConfigHashSeparatesConfigs) {
  const PlatformSimConfig base = ChaosPlatformConfig();
  PlatformSimConfig other = base;
  other.retry.max_attempts = 5;
  EXPECT_NE(PlatformEngine(base, 1).ConfigHash(), PlatformEngine(other, 1).ConfigHash());
  // Seed is part of the hash: a resume under another seed is a different run.
  EXPECT_NE(PlatformEngine(base, 1).ConfigHash(), PlatformEngine(base, 2).ConfigHash());

  // So is every field of the keep-alive, serving and cold-start models.
  PlatformSimConfig short_ka = base;
  short_ka.keepalive = MakeFixedKeepAlive(5 * kSec, KaResourceBehavior::kFreezeDeallocate);
  PlatformSimConfig long_ka = base;
  long_ka.keepalive = MakeFixedKeepAlive(600 * kSec, KaResourceBehavior::kFreezeDeallocate);
  EXPECT_NE(PlatformEngine(short_ka, 1).ConfigHash(), PlatformEngine(long_ka, 1).ConfigHash());
  PlatformSimConfig serving = base;
  serving.serving.cpu_work += 1;
  EXPECT_NE(PlatformEngine(base, 1).ConfigHash(), PlatformEngine(serving, 1).ConfigHash());
  PlatformSimConfig python = base;
  python.coldstart = PythonColdStart();
  PlatformSimConfig slower = python;
  slower.coldstart->dependency_import.sigma += 0.01;
  EXPECT_NE(PlatformEngine(python, 1).ConfigHash(), PlatformEngine(slower, 1).ConfigHash());
}

// Golden digests. These pin simulator behavior bit-for-bit; see the file
// comment before updating.
TEST(EngineDigest, GoldenPlatform) {
  EXPECT_EQ(PlatformEndDigest(1), 0xff28c87dc5004113ULL);
  EXPECT_EQ(PlatformEndDigest(2), 0x68f7fb6466a4f2b1ULL);
}

// Re-pinned when the fleet engine moved to O(live state): the walk gained
// the trace cursor, and at end of run (before Finish) sandboxes first seen
// past keep-alive are already closed and out of their pools. FleetResult is
// unchanged field for field (tests/cluster/fleet_golden_test.cc). Re-pinned
// again when the fleet's admission queue went: the walk lost its keys
// (waiting_now, each pending attempt's queued/queued_since/ticket,
// queue_waiting, queued_attempts, queue_wait_seconds), whose values in this
// uncapped run were all zero.
TEST(EngineDigest, GoldenFleet) {
  EXPECT_EQ(FleetEndDigest(7), 0x59aca113c0ac8103ULL);
  EXPECT_EQ(FleetEndDigest(8), 0x8b0f0a665d782b1fULL);
}

}  // namespace
}  // namespace faascost
