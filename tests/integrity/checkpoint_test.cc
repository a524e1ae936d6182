// Deterministic checkpoint/resume. The contract under test: for any stop
// time T1 < end, `run-to-end` and `run-to-T1 + save + restore into a fresh
// engine + resume-to-end` produce the same canonical state digest, bit for
// bit, on both the platform and the fleet simulator under chaos. Plus the
// checkpoint file format itself: header round-trip, atomic write, and
// fail-closed loading of malformed or mismatched files and state blobs.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/fileio.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/checkpoint.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;

PlatformSimConfig ChaosPlatformConfig() {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1769.0);
  cfg.faults.crash_prob = 0.05;
  cfg.faults.init_failure_prob = 0.0125;
  cfg.retry.max_attempts = 3;
  return cfg;
}

std::vector<MicroSecs> PlatformArrivals() { return UniformArrivals(20.0, 30 * kSec); }

FleetSimConfig ChaosFleetConfig(uint64_t seed) {
  FleetSimConfig cfg;
  cfg.fault_seed = seed;
  cfg.retry.max_attempts = 3;
  cfg.host_faults.hosts = 16;
  cfg.host_faults.mtbf_seconds = 600.0;
  cfg.host_faults.mttr_seconds = 60.0;
  cfg.host_faults.graceful_fraction = 0.3;
  return cfg;
}

std::vector<RequestRecord> FleetTrace(uint64_t seed) {
  TraceGenConfig cfg;
  cfg.num_requests = 4'000;
  cfg.num_functions = 100;
  cfg.window = 600 * kSec;
  return TraceGenerator(cfg, seed).Generate();
}

std::string SavePlatformState(PlatformEngine& engine) {
  JsonWriter w;
  engine.SaveState(w);
  return w.str();
}

std::string SaveFleetState(FleetEngine& engine) {
  JsonWriter w;
  engine.SaveState(w);
  return w.str();
}

TEST(CheckpointResume, PlatformRunToEndEqualsResumeAcrossSeeds) {
  const PlatformSimConfig cfg = ChaosPlatformConfig();
  const std::vector<MicroSecs> arrivals = PlatformArrivals();
  for (const uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    PlatformEngine straight(cfg, seed);
    straight.Start(arrivals, PyAesWorkload());
    straight.RunToEnd();
    const uint64_t want = straight.Digest();

    PlatformEngine first(cfg, seed);
    first.Start(arrivals, PyAesWorkload());
    first.AdvanceUntil(10 * kSec);
    ASSERT_FALSE(first.done()) << "seed " << seed << ": stop time is not mid-run";
    const std::string state = SavePlatformState(first);
    const uint64_t mid = first.Digest();

    PlatformEngine resumed(cfg, seed);
    resumed.LoadState(ParseJson(state));
    EXPECT_EQ(resumed.Digest(), mid) << "seed " << seed << ": restore changed state";
    resumed.RunToEnd();
    EXPECT_EQ(resumed.Digest(), want) << "seed " << seed << ": resumed end diverged";

    // The finished results agree too, not just the digest.
    const PlatformSimResult a = straight.Finish();
    const PlatformSimResult b = resumed.Finish();
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.attempts.size(), b.attempts.size());
    EXPECT_EQ(a.cold_starts, b.cold_starts);
  }
}

TEST(CheckpointResume, PlatformSaveIsByteStableAcrossRestore) {
  const PlatformSimConfig cfg = ChaosPlatformConfig();
  PlatformEngine engine(cfg, 1);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(10 * kSec);
  const std::string state = SavePlatformState(engine);

  PlatformEngine restored(cfg, 1);
  restored.LoadState(ParseJson(state));
  EXPECT_EQ(SavePlatformState(restored), state);
}

TEST(CheckpointResume, FleetRunToEndEqualsResumeAcrossSeeds) {
  for (const uint64_t seed : {7ULL, 8ULL, 9ULL}) {
    const FleetSimConfig cfg = ChaosFleetConfig(seed);
    const std::vector<RequestRecord> trace = FleetTrace(seed);
    const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

    FleetEngine straight(cfg);
    straight.Start(trace, billing);
    straight.RunToEnd();
    const uint64_t want = straight.Digest();

    FleetEngine first(cfg);
    first.Start(trace, billing);
    first.AdvanceUntil(200 * kSec);
    ASSERT_FALSE(first.done()) << "seed " << seed << ": stop time is not mid-run";
    const std::string state = SaveFleetState(first);
    const uint64_t mid = first.Digest();

    FleetEngine resumed(cfg);
    resumed.Resume(trace, billing, ParseJson(state));
    EXPECT_EQ(resumed.Digest(), mid) << "seed " << seed << ": restore changed state";
    resumed.RunToEnd();
    EXPECT_EQ(resumed.Digest(), want) << "seed " << seed << ": resumed end diverged";

    const FleetResult a = straight.Finish();
    const FleetResult b = resumed.Finish();
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_DOUBLE_EQ(a.revenue, b.revenue);
    EXPECT_DOUBLE_EQ(a.hardware_cost, b.hardware_cost);
  }
}

TEST(CheckpointResume, FleetSaveIsByteStableAcrossRestore) {
  const FleetSimConfig cfg = ChaosFleetConfig(7);
  const std::vector<RequestRecord> trace = FleetTrace(7);
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  FleetEngine engine(cfg);
  engine.Start(trace, billing);
  engine.AdvanceUntil(200 * kSec);
  const std::string state = SaveFleetState(engine);

  FleetEngine restored(cfg);
  restored.Resume(trace, billing, ParseJson(state));
  EXPECT_EQ(SaveFleetState(restored), state);
}

// --- Checkpoint file format ---

TEST(CheckpointFile, HeaderRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "/faascost_cp_roundtrip.json";
  PlatformEngine engine(ChaosPlatformConfig(), 3);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(5 * kSec);

  CheckpointHeader header;
  header.sim = "platform";
  header.seed = 3;
  header.config_hash = engine.ConfigHash();
  header.input_digest = 0;
  header.sim_time_us = engine.now();
  header.state_digest = engine.Digest();
  WriteCheckpoint(path, header, [&](JsonWriter& w) { engine.SaveState(w); });

  const LoadedCheckpoint cp = LoadCheckpoint(path);
  EXPECT_EQ(cp.header.sim, "platform");
  EXPECT_EQ(cp.header.seed, 3u);
  EXPECT_EQ(cp.header.config_hash, header.config_hash);
  EXPECT_EQ(cp.header.sim_time_us, header.sim_time_us);
  EXPECT_EQ(cp.header.state_digest, header.state_digest);

  PlatformEngine restored(ChaosPlatformConfig(), 3);
  restored.LoadState(cp.state());
  EXPECT_EQ(restored.Digest(), header.state_digest);
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileThrows) {
  EXPECT_THROW(LoadCheckpoint(testing::TempDir() + "/faascost_no_such_cp.json"),
               CheckpointError);
}

TEST(CheckpointFile, GarbageBytesThrow) {
  const std::string path = testing::TempDir() + "/faascost_cp_garbage.json";
  WriteFileAtomic(path, "this is not json {");
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointFile, WrongMagicAndVersionThrow) {
  const std::string path = testing::TempDir() + "/faascost_cp_bad_header.json";
  WriteFileAtomic(path,
                  R"({"magic":"other-tool","version":1,"sim":"platform","seed":1,)"
                  R"("config_hash":0,"input_digest":0,"sim_time_us":0,)"
                  R"("state_digest":0,"state":{}})");
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  WriteFileAtomic(path,
                  R"({"magic":"faascost-checkpoint","version":999,"sim":"platform",)"
                  R"("seed":1,"config_hash":0,"input_digest":0,"sim_time_us":0,)"
                  R"("state_digest":0,"state":{}})");
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointFile, TruncatedStateThrows) {
  const std::string path = testing::TempDir() + "/faascost_cp_truncated.json";
  PlatformEngine engine(ChaosPlatformConfig(), 3);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(5 * kSec);
  CheckpointHeader header;
  header.sim = "platform";
  header.seed = 3;
  header.state_digest = engine.Digest();
  WriteCheckpoint(path, header, [&](JsonWriter& w) { engine.SaveState(w); });

  const std::string full = ReadFileToString(path);
  WriteFileAtomic(path, full.substr(0, full.size() / 2));
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  std::remove(path.c_str());
}

// A bit flip in the state blob that stays structurally valid JSON is caught
// by the digest recorded in the header — the detection step the CLI runs
// after every restore.
TEST(CheckpointFile, TamperedStateFailsDigestValidation) {
  const std::string path = testing::TempDir() + "/faascost_cp_tampered.json";
  PlatformEngine engine(ChaosPlatformConfig(), 3);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(5 * kSec);
  CheckpointHeader header;
  header.sim = "platform";
  header.seed = 3;
  header.config_hash = engine.ConfigHash();
  header.state_digest = engine.Digest();
  WriteCheckpoint(path, header, [&](JsonWriter& w) { engine.SaveState(w); });

  std::string text = ReadFileToString(path);
  const std::string needle = "\"open_attempts\":";
  const size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  // Prepend a digit to the serialized counter: still valid JSON, wrong state.
  text.insert(pos + needle.size(), "9");
  WriteFileAtomic(path, text);

  const LoadedCheckpoint cp = LoadCheckpoint(path);
  PlatformEngine restored(ChaosPlatformConfig(), 3);
  restored.LoadState(cp.state());
  EXPECT_NE(restored.Digest(), cp.header.state_digest);
  std::remove(path.c_str());
}

// --- Malformed state blobs ---

// `state` rebuilt with top-level `key` dropped, or its value replaced when
// `value` is given: still valid JSON, no longer a valid engine state.
JsonValue EditKey(const JsonValue& state, const std::string& key,
                  const JsonValue* value = nullptr) {
  std::vector<std::pair<std::string, JsonValue>> members;
  bool found = false;
  for (const auto& [k, v] : state.GetObject()) {
    if (k != key) {
      members.emplace_back(k, v);
      continue;
    }
    found = true;
    if (value != nullptr) {
      members.emplace_back(k, *value);
    }
  }
  EXPECT_TRUE(found) << "state has no key '" << key << "'";
  return JsonValue::MakeObject(std::move(members));
}

// A scalar, an object and an array key per engine, each dropped and each
// given a value of the wrong type: every restore must throw CheckpointError
// (the CLI's exit 3), never a bare runtime_error.
TEST(CheckpointState, PlatformMissingOrWrongTypedKeyThrowsCheckpointError) {
  PlatformEngine engine(ChaosPlatformConfig(), 3);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(5 * kSec);
  const JsonValue state = ParseJson(SavePlatformState(engine));
  const JsonValue wrong = JsonValue::MakeString("not a number");
  for (const std::string key : {"now", "counters", "events"}) {
    PlatformEngine missing(ChaosPlatformConfig(), 3);
    EXPECT_THROW(missing.LoadState(EditKey(state, key)), CheckpointError) << key;
    PlatformEngine mistyped(ChaosPlatformConfig(), 3);
    EXPECT_THROW(mistyped.LoadState(EditKey(state, key, &wrong)), CheckpointError) << key;
  }
}

// A state blob from before the trace cursor existed lacks `next_arrival`:
// the missing-key path, not a silent restart from record 0.
TEST(CheckpointState, FleetMissingOrWrongTypedKeyThrowsCheckpointError) {
  const FleetSimConfig cfg = ChaosFleetConfig(7);
  const std::vector<RequestRecord> trace = FleetTrace(7);
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  FleetEngine engine(cfg);
  engine.Start(trace, billing);
  engine.AdvanceUntil(200 * kSec);
  const JsonValue state = ParseJson(SaveFleetState(engine));
  const JsonValue wrong = JsonValue::MakeString("not a number");
  for (const std::string key : {"now", "next_arrival", "counters", "pools"}) {
    FleetEngine missing(cfg);
    EXPECT_THROW(missing.Resume(trace, billing, EditKey(state, key)), CheckpointError)
        << key;
    FleetEngine mistyped(cfg);
    EXPECT_THROW(mistyped.Resume(trace, billing, EditKey(state, key, &wrong)),
                 CheckpointError)
        << key;
  }
  // An int field past int range is wrong-typed too, not silently truncated.
  const JsonValue huge = JsonValue::MakeInt(1ULL << 40, /*negative=*/false);
  FleetEngine truncated(cfg);
  EXPECT_THROW(truncated.Resume(trace, billing, EditKey(state, "next_host", &huge)),
               CheckpointError);
  // A cursor past the end of the trace cannot be resumed from.
  const JsonValue past_end = JsonValue::MakeInt(trace.size() + 1, /*negative=*/false);
  FleetEngine overrun(cfg);
  EXPECT_THROW(overrun.Resume(trace, billing, EditKey(state, "next_arrival", &past_end)),
               CheckpointError);
}

}  // namespace
}  // namespace faascost
