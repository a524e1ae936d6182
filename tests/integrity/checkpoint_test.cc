// Deterministic checkpoint/resume. The contract under test: for any stop
// time T1 < end, `run-to-end` and `run-to-T1 + save + restore into a fresh
// engine + resume-to-end` produce the same canonical state digest, bit for
// bit, on both the platform and the fleet simulator under chaos. Plus the
// checkpoint file format itself: header round-trip, atomic write, and
// fail-closed loading of malformed or mismatched files and state blobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/fileio.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/checkpoint.h"
#include "src/integrity/integrity.h"
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

// `v` with the value at `path` replaced by `value`; a step into an array is
// the element's index.
JsonValue ReplaceAt(const JsonValue& v, const std::vector<std::string>& path,
                    const JsonValue& value, size_t depth = 0) {
  if (depth == path.size()) {
    return value;
  }
  if (v.kind() == JsonValue::Kind::kArray) {
    std::vector<JsonValue> items = v.GetArray();
    JsonValue& item = items.at(std::stoul(path[depth]));
    item = ReplaceAt(item, path, value, depth + 1);
    return JsonValue::MakeArray(std::move(items));
  }
  std::vector<std::pair<std::string, JsonValue>> members = v.GetObject();
  for (auto& [key, member] : members) {
    if (key == path[depth]) {
      member = ReplaceAt(member, path, value, depth + 1);
    }
  }
  return JsonValue::MakeObject(std::move(members));
}

JsonValue Uint(uint64_t v) { return JsonValue::MakeInt(v, /*negative=*/false); }

// A chaos fleet stopped at 200 s, with live pools on its 16 hosts. Each
// index its state holds must fit what it indexes: the last valid value
// resumes, one past it is a malformed checkpoint (CheckpointError, the
// CLI's exit 3), not a crash in the resumed run.
class FleetStateIndices : public ::testing::Test {
 protected:
  void SetUp() override {
    FleetEngine engine(cfg_);
    engine.Start(trace_, billing_);
    engine.AdvanceUntil(200 * kSec);
    state_ = ParseJson(SaveFleetState(engine));
    ASSERT_FALSE(state_.At("pools").GetArray().empty());
  }

  // Resumes `state_` with the value at `path` set to `ok`, then to `bad`.
  void ExpectBoundary(const std::vector<std::string>& path, const JsonValue& ok,
                      const JsonValue& bad) {
    FleetEngine accepted(cfg_);
    EXPECT_NO_THROW(accepted.Resume(trace_, billing_, ReplaceAt(state_, path, ok)));
    FleetEngine rejected(cfg_);
    EXPECT_THROW(rejected.Resume(trace_, billing_, ReplaceAt(state_, path, bad)),
                 CheckpointError);
  }

  const FleetSimConfig cfg_ = ChaosFleetConfig(7);
  const std::vector<RequestRecord> trace_ = FleetTrace(7);
  const BillingModel billing_ = MakeBillingModel(Platform::kAwsLambda);
  JsonValue state_;
};

TEST_F(FleetStateIndices, PendingRecordPastTheTraceThrows) {
  // One retry waiting in the heap, naming the last record, then one past it.
  const auto pending = [&](uint64_t idx) {
    return JsonValue::MakeArray({JsonValue::MakeObject({
        {"t", Uint(201 * kSec)},
        {"seq", state_.At("next_seq")},
        {"idx", Uint(idx)},
        {"attempt", Uint(2)},
        {"queued", JsonValue::MakeBool(false)},
        {"queued_since", Uint(0)},
        {"ticket", JsonValue::MakeInt(1, /*negative=*/true)},
    })});
  };
  ExpectBoundary({"pending"}, pending(trace_.size() - 1), pending(trace_.size()));
}

TEST_F(FleetStateIndices, PooledSpanPastTheSpansThrows) {
  const uint64_t spans = state_.At("spans").GetArray().size();
  ExpectBoundary({"pools", "0", "sandboxes", "0", "span"}, Uint(spans - 1), Uint(spans));
}

TEST_F(FleetStateIndices, PooledHostPastTheHostsThrows) {
  const auto hosts = static_cast<uint64_t>(cfg_.host_faults.hosts);
  ExpectBoundary({"pools", "0", "sandboxes", "0", "host"}, Uint(hosts - 1), Uint(hosts));
}

TEST_F(FleetStateIndices, NextHostPastTheHostsThrows) {
  const auto hosts = static_cast<uint64_t>(cfg_.host_faults.hosts);
  ExpectBoundary({"next_host"}, Uint(hosts - 1), Uint(hosts));
}

TEST_F(FleetStateIndices, BreakerStatePastItsEnumeratorsThrows) {
  // The chaos fleet runs no breaker; this one trips on its crashing hosts.
  FleetSimConfig cfg = cfg_;
  cfg.retry.breaker_threshold = 2;
  FleetEngine engine(cfg);
  engine.Start(trace_, billing_);
  engine.AdvanceUntil(200 * kSec);
  const JsonValue state = ParseJson(SaveFleetState(engine));
  ASSERT_FALSE(state.At("breakers").GetArray().empty());
  // Closed, open and half-open: the last loads, the next names no state.
  for (const auto& [ok, bad] : {std::pair{Uint(2), Uint(3)},
                                std::pair{Uint(0), JsonValue::MakeInt(1, true)}}) {
    FleetEngine accepted(cfg);
    EXPECT_NO_THROW(accepted.Resume(trace_, billing_,
                                    ReplaceAt(state, {"breakers", "0", "state"}, ok)));
    FleetEngine rejected(cfg);
    EXPECT_THROW(rejected.Resume(trace_, billing_,
                                 ReplaceAt(state, {"breakers", "0", "state"}, bad)),
                 CheckpointError);
  }
}

TEST_F(FleetStateIndices, E2eLatencyShorterThanTheTraceThrows) {
  std::vector<JsonValue> latencies = state_.At("e2e_latency").GetArray();
  ASSERT_EQ(latencies.size(), trace_.size());
  const JsonValue full = JsonValue::MakeArray(latencies);
  latencies.pop_back();
  ExpectBoundary({"e2e_latency"}, full, JsonValue::MakeArray(std::move(latencies)));
}

JsonValue Int(int64_t v) {
  return JsonValue::MakeInt(v < 0 ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v),
                            v < 0);
}

// The chaos platform stopped at 5 s, with sandboxes live and attempts in
// flight. As for the fleet, each index its state holds must fit what it
// indexes: the last valid value loads, one past it is a malformed
// checkpoint.
class PlatformStateIndices : public ::testing::Test {
 protected:
  void SetUp() override {
    PlatformEngine engine(ChaosPlatformConfig(), 3);
    engine.Start(PlatformArrivals(), PyAesWorkload());
    engine.AdvanceUntil(5 * kSec);
    state_ = ParseJson(SavePlatformState(engine));
    requests_ = static_cast<int64_t>(state_.At("requests").GetArray().size());
    attempts_ = static_cast<int64_t>(state_.At("attempts").GetArray().size());
    const std::vector<JsonValue>& sandboxes = state_.At("sandboxes").GetArray();
    sandboxes_ = static_cast<int64_t>(sandboxes.size());
    for (size_t i = 0; i < sandboxes.size() && busy_ < 0; ++i) {
      if (!sandboxes[i].At("inflight").GetArray().empty()) {
        busy_ = static_cast<int64_t>(i);
      }
    }
    ASSERT_GT(attempts_, 0);
    ASSERT_GE(busy_, 0);
  }

  void ExpectBoundary(const std::vector<std::string>& path, const JsonValue& ok,
                      const JsonValue& bad) {
    PlatformEngine accepted(ChaosPlatformConfig(), 3);
    EXPECT_NO_THROW(accepted.LoadState(ReplaceAt(state_, path, ok)));
    PlatformEngine rejected(ChaosPlatformConfig(), 3);
    EXPECT_THROW(rejected.LoadState(ReplaceAt(state_, path, bad)), CheckpointError);
  }

  // The saved events plus one of kind `k` naming sandbox `sb` and index `r`,
  // due after every saved event so the heap order holds.
  JsonValue EventsWith(int64_t k, int64_t sb, int64_t r) const {
    std::vector<JsonValue> events = state_.At("events").GetArray();
    int64_t last = 0;
    for (const JsonValue& e : events) {
      last = std::max(last, e.At("t").GetInt64());
    }
    events.push_back(JsonValue::MakeObject({
        {"t", Int(last + 1)},
        {"k", Int(k)},
        {"sb", Int(sb)},
        {"g", Uint(0)},
        {"r", Int(r)},
    }));
    return JsonValue::MakeArray(std::move(events));
  }

  // The top-level array `key`, whole and then one element short.
  void ExpectShorterThrows(const std::string& key) {
    std::vector<JsonValue> items = state_.At(key).GetArray();
    const JsonValue full = JsonValue::MakeArray(items);
    items.pop_back();
    ExpectBoundary({key}, full, JsonValue::MakeArray(std::move(items)));
  }

  // EventType values (src/platform/platform_sim.cc).
  static constexpr int64_t kArrival = 0;
  static constexpr int64_t kInitDone = 1;
  static constexpr int64_t kExecTimeout = 7;
  static constexpr int64_t kDrainDeadline = 10;

  JsonValue state_;
  int64_t requests_ = 0;
  int64_t attempts_ = 0;
  int64_t sandboxes_ = 0;
  int64_t busy_ = -1;  // A sandbox with a request in flight.
};

TEST_F(PlatformStateIndices, EventSandboxPastTheSandboxesThrows) {
  ExpectBoundary({"events"}, EventsWith(kInitDone, sandboxes_ - 1, -1),
                 EventsWith(kInitDone, sandboxes_, -1));
  // A kind that indexes a sandbox needs one; the others carry -1 or one.
  ExpectBoundary({"events"}, EventsWith(kInitDone, 0, -1), EventsWith(kInitDone, -1, -1));
  ExpectBoundary({"events"}, EventsWith(kArrival, sandboxes_ - 1, 0),
                 EventsWith(kArrival, sandboxes_, 0));
}

TEST_F(PlatformStateIndices, EventRequestPastTheRequestsThrows) {
  ExpectBoundary({"events"}, EventsWith(kArrival, -1, requests_ - 1),
                 EventsWith(kArrival, -1, requests_));
}

TEST_F(PlatformStateIndices, EventAttemptPastTheAttemptRowsThrows) {
  ExpectBoundary({"events"}, EventsWith(kExecTimeout, -1, attempts_ - 1),
                 EventsWith(kExecTimeout, -1, attempts_));
}

TEST_F(PlatformStateIndices, EventKindPastTheKindsThrows) {
  ExpectBoundary({"events"}, EventsWith(kDrainDeadline, 0, -1),
                 EventsWith(kDrainDeadline + 1, 0, -1));
}

TEST_F(PlatformStateIndices, BreakerStatePastItsEnumeratorsThrows) {
  // Closed, open and half-open.
  ExpectBoundary({"breaker", "state"}, Int(2), Int(3));
  ExpectBoundary({"breaker", "state"}, Int(0), Int(-1));
}

TEST_F(PlatformStateIndices, OutcomePastTheOutcomesThrows) {
  const auto last = static_cast<int64_t>(std::size(kAllOutcomes)) - 1;
  ExpectBoundary({"requests", "0", "outcome"}, Int(last), Int(last + 1));
  ExpectBoundary({"requests", "0", "last_error"}, Int(last), Int(last + 1));
  ExpectBoundary({"attempts", "0", "outcome"}, Int(last), Int(last + 1));
  ExpectBoundary({"attempts", "0", "outcome"}, Int(0), Int(-1));
}

TEST_F(PlatformStateIndices, SandboxIdOtherThanItsPositionThrows) {
  ExpectBoundary({"sandboxes", "0", "id"}, Uint(0), Uint(1));
}

TEST_F(PlatformStateIndices, InflightRequestPastTheRequestsThrows) {
  ExpectBoundary({"sandboxes", std::to_string(busy_), "inflight", "0", "req_idx"},
                 Int(requests_ - 1), Int(requests_));
}

TEST_F(PlatformStateIndices, InflightAttemptPastTheAttemptRowsThrows) {
  ExpectBoundary({"sandboxes", std::to_string(busy_), "inflight", "0", "attempt_idx"},
                 Int(attempts_ - 1), Int(attempts_));
}

TEST_F(PlatformStateIndices, PendingLocalEntryPastTheAttemptRowsThrows) {
  ExpectBoundary({"sandboxes", "0", "pending_local"},
                 JsonValue::MakeArray({Int(attempts_ - 1)}),
                 JsonValue::MakeArray({Int(attempts_)}));
}

TEST_F(PlatformStateIndices, GlobalQueueEntryPastTheAttemptRowsThrows) {
  ExpectBoundary({"global_queue"}, JsonValue::MakeArray({Int(attempts_ - 1)}),
                 JsonValue::MakeArray({Int(attempts_)}));
}

TEST_F(PlatformStateIndices, NextAttemptNoShorterThanTheRequestsThrows) {
  ExpectShorterThrows("next_attempt_no");
}

TEST_F(PlatformStateIndices, AttemptOpenShorterThanTheAttemptRowsThrows) {
  ExpectShorterThrows("attempt_open");
}

TEST_F(PlatformStateIndices, AttemptStartedShorterThanTheAttemptRowsThrows) {
  ExpectShorterThrows("attempt_started");
}

TEST_F(PlatformStateIndices, AttemptRowRequestPastTheRequestsThrows) {
  ExpectBoundary({"attempts", "0", "req_idx"}, Int(requests_ - 1), Int(requests_));
}

TEST_F(PlatformStateIndices, AttemptRowSandboxPastTheSandboxesThrows) {
  ExpectBoundary({"attempts", "0", "sandbox_id"}, Int(sandboxes_ - 1), Int(sandboxes_));
}

// The AWS policy learns nothing, so its idle history walks as an empty
// array, and any entry in it is a malformed checkpoint.
TEST_F(PlatformStateIndices, IdleHistoryUnderANonLearningPolicyThrows) {
  ExpectBoundary({"keepalive"}, JsonValue::MakeArray(std::vector<JsonValue>{}),
                 JsonValue::MakeArray({Int(0)}));
}

// Histogram pre-warming on Azure, one request every 430 s: the idle history
// is trusted from its 10th gap on, so T1 stops mid-training and T2 after it.
PlatformSimConfig PrewarmPlatformConfig() {
  PlatformSimConfig cfg = AzurePlatform();
  cfg.keepalive = MakeHistogramPrewarm();
  return cfg;
}

std::vector<MicroSecs> RegularArrivals() {
  std::vector<MicroSecs> arrivals;
  for (int i = 0; i < 30; ++i) {
    arrivals.push_back(static_cast<MicroSecs>(i) * 430 * kSec);
  }
  return arrivals;
}

constexpr MicroSecs kPrewarmT1 = (6 * 430 + 200) * kSec;
constexpr MicroSecs kPrewarmT2 = (20 * 430 + 200) * kSec;

JsonValue PrewarmStateAtT1() {
  PlatformEngine engine(PrewarmPlatformConfig(), 4);
  engine.Start(RegularArrivals(), MinimalWorkload());
  engine.AdvanceUntil(kPrewarmT1);
  return ParseJson(SavePlatformState(engine));
}

// The learned idle history is state: resumed mid-training, a run learns on
// from where it stopped and reaches the straight run's state.
TEST(CheckpointResume, PrewarmHistoryResumesMidTraining) {
  PlatformEngine straight(PrewarmPlatformConfig(), 4);
  straight.Start(RegularArrivals(), MinimalWorkload());
  straight.AdvanceUntil(kPrewarmT2);

  const JsonValue state = PrewarmStateAtT1();
  const std::vector<JsonValue>& history = state.At("keepalive").GetArray();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history[0].GetInt64(), 6);  // Six gaps observed, not yet trusted.
  PlatformEngine resumed(PrewarmPlatformConfig(), 4);
  resumed.LoadState(state);
  resumed.AdvanceUntil(kPrewarmT2);
  EXPECT_EQ(resumed.Digest(), straight.Digest());
  EXPECT_FALSE(straight.done());
}

// Under a learning policy the history is [observations, bins...]: an array
// one value short or long is a malformed checkpoint.
TEST(CheckpointState, PrewarmHistoryOfTheWrongLengthThrowsCheckpointError) {
  const JsonValue state = PrewarmStateAtT1();
  std::vector<JsonValue> longer = state.At("keepalive").GetArray();
  std::vector<JsonValue> shorter = longer;
  longer.push_back(Int(0));
  shorter.pop_back();
  PlatformEngine same(PrewarmPlatformConfig(), 4);
  EXPECT_NO_THROW(same.LoadState(state));
  PlatformEngine too_long(PrewarmPlatformConfig(), 4);
  EXPECT_THROW(
      too_long.LoadState(ReplaceAt(state, {"keepalive"}, JsonValue::MakeArray(longer))),
      CheckpointError);
  PlatformEngine too_short(PrewarmPlatformConfig(), 4);
  EXPECT_THROW(
      too_short.LoadState(ReplaceAt(state, {"keepalive"}, JsonValue::MakeArray(shorter))),
      CheckpointError);
}

// The in-run USD conservation check names both sums exactly: a resumed
// state whose fee revenue exceeds its revenue fails the first scan, and
// the detail's two numbers parse back to the engine's two doubles, bit for
// bit.
TEST(CheckpointState, FleetUsdConservationDetailIsExact) {
  const FleetSimConfig cfg = ChaosFleetConfig(7);
  const std::vector<RequestRecord> trace = FleetTrace(7);
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  FleetEngine engine(cfg);
  engine.Start(trace, billing);
  engine.AdvanceUntil(200 * kSec);
  const JsonValue state = ParseJson(SaveFleetState(engine));
  const auto counter = [](const JsonValue& st, const char* key) {
    return std::bit_cast<double>(st.At("counters").At(key).GetUint64());
  };
  const double fees = counter(state, "revenue") * 1.37;

  Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/1);
  FleetSimConfig audited = cfg;
  audited.auditor = &auditor;
  FleetEngine resumed(audited);
  resumed.Resume(trace, billing,
                 ReplaceAt(state, {"counters", "fee_revenue"},
                           Uint(std::bit_cast<uint64_t>(fees))));
  try {
    resumed.RunToEnd();
    FAIL() << "fee revenue above revenue passed the scan";
  } catch (const IntegrityViolation& v) {
    EXPECT_EQ(v.invariant(), "fleet.usd_conservation");
    const std::string& detail = v.detail();
    const size_t total_at = detail.find(" total=");
    ASSERT_EQ(detail.rfind("fees=", 0), 0U) << detail;
    ASSERT_NE(total_at, std::string::npos) << detail;
    const double printed_fees = ParseJson(detail.substr(5, total_at - 5)).GetDouble();
    const double printed_total = ParseJson(detail.substr(total_at + 7)).GetDouble();
    // The scan ran after the first resumed attempt billed: compare with
    // the sums the engine holds now.
    const JsonValue now = ParseJson(SaveFleetState(resumed));
    EXPECT_EQ(std::bit_cast<uint64_t>(printed_fees),
              std::bit_cast<uint64_t>(counter(now, "fee_revenue")))
        << detail;
    EXPECT_EQ(std::bit_cast<uint64_t>(printed_total),
              std::bit_cast<uint64_t>(counter(now, "revenue")))
        << detail;
  }
}

}  // namespace
}  // namespace faascost
