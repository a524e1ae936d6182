// Field-level PlatformSimResult goldens: six PlatformEngine shapes (GCP
// multi-concurrency with crashes under random routing, GCP with busy
// scale-down drains, AWS single-concurrency with the admission queue and
// client timeouts, multi-concurrency 429s at max_instances, and two AWS
// single-concurrency shapes at max_instances: 429s with a client breaker
// and no admission queue, and the queue shedding its newest arrival) at
// seeds 7 and 8. Counts are pinned as integers; the request, attempt,
// timeline and sandbox tables as FNV digests over every field.
//
// The first four shapes' values were computed by the engine that swept
// every sandbox it ever created on each dispatch, queue pull, scaler
// evaluation and sample, and recounted each sandbox's CPU-phase requests on
// every rate update. The two AWS shapes at max_instances were computed by
// the engine that still coded the single-concurrency placement once for
// dispatch and once for the admission pump. The current engine must
// reproduce them exactly: straight through, in AdvanceUntil slices, and
// resumed from a mid-run checkpoint that holds dead sandboxes. `destroyed_at` and
// `total_instance_seconds` are left out: they report each sandbox's own
// retirement time, checked against its lifetime span below. A failure
// prints the actual table, ready to paste if a change is meant to move it.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/integrity/digest.h"
#include "src/integrity/integrity.h"
#include "src/obs/span.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "tests/golden_table.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;
// Checkpoint instant for the resumed runs: after the burst, once the scaler
// and the faults have retired sandboxes.
constexpr MicroSecs kCheckpointAt = 150 * kSec;

enum class Shape {
  kGcpCrashes,
  kGcpDrains,
  kAwsAdmission,
  kReject429,
  kAwsReject429,
  kAwsRejectNewest,
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kGcpCrashes:
      return "kGcpCrashes";
    case Shape::kGcpDrains:
      return "kGcpDrains";
    case Shape::kAwsAdmission:
      return "kAwsAdmission";
    case Shape::kReject429:
      return "kReject429";
    case Shape::kAwsReject429:
      return "kAwsReject429";
    case Shape::kAwsRejectNewest:
      return "kAwsRejectNewest";
  }
  return "?";
}

PlatformSimConfig ShapeConfig(Shape shape) {
  PlatformSimConfig cfg;
  switch (shape) {
    case Shape::kGcpCrashes:
      cfg = GcpPlatform(1.0, 1'024.0);
      cfg.routing = RoutingPolicy::kRandom;
      cfg.concurrency_limit = 8;
      cfg.faults.crash_prob = 0.03;
      cfg.faults.init_failure_prob = 0.02;
      cfg.retry.max_attempts = 3;
      break;
    case Shape::kGcpDrains:
      cfg = GcpPlatform(1.0, 1'024.0);
      cfg.routing = RoutingPolicy::kLeastLoaded;
      cfg.concurrency_limit = 4;
      cfg.scaledown_drains_busy = true;
      cfg.drain_deadline = 300 * kMicrosPerMilli;
      cfg.faults.crash_prob = 0.01;
      cfg.retry.max_attempts = 2;
      break;
    case Shape::kAwsAdmission:
      cfg = AwsLambdaPlatform(1.0, 1'769.0);
      cfg.max_instances = 4;
      cfg.admission.enabled = true;
      cfg.admission.queue_depth = 12;
      cfg.admission.queue_timeout = 300 * kMicrosPerMilli;
      cfg.admission.shed = ShedPolicy::kRejectOldest;
      cfg.faults.crash_prob = 0.04;
      cfg.faults.init_failure_prob = 0.05;
      cfg.retry.max_attempts = 3;
      cfg.retry.attempt_timeout = 700 * kMicrosPerMilli;
      break;
    case Shape::kReject429:
      cfg = GcpPlatform(1.0, 1'024.0);
      cfg.concurrency_limit = 4;
      cfg.max_instances = 3;
      cfg.faults.reject_on_overload = true;
      cfg.faults.crash_prob = 0.02;
      cfg.faults.max_exec_duration = 700 * kMicrosPerMilli;
      cfg.retry.max_attempts = 3;
      break;
    case Shape::kAwsReject429:
      cfg = AwsLambdaPlatform(1.0, 1'769.0);
      cfg.max_instances = 4;
      cfg.faults.reject_on_overload = true;
      cfg.faults.crash_prob = 0.04;
      cfg.faults.init_failure_prob = 0.05;
      cfg.faults.max_exec_duration = 264 * kMicrosPerMilli;
      cfg.retry.max_attempts = 3;
      cfg.retry.breaker_threshold = 8;
      cfg.retry.breaker_cooldown = 2 * kSec;
      break;
    case Shape::kAwsRejectNewest:
      cfg = AwsLambdaPlatform(1.0, 1'769.0);
      cfg.max_instances = 4;
      cfg.admission.enabled = true;
      cfg.admission.queue_depth = 8;
      cfg.admission.queue_timeout = 400 * kMicrosPerMilli;
      cfg.admission.shed = ShedPolicy::kRejectNewest;
      cfg.faults.crash_prob = 0.04;
      cfg.faults.init_failure_prob = 0.05;
      cfg.retry.max_attempts = 3;
      cfg.retry.attempt_timeout = 600 * kMicrosPerMilli;
      break;
  }
  return cfg;
}

// PyAES, with blocking I/O where the shape needs requests that outlast a
// scale-down decision (drains) or long single-concurrency occupancy (the
// admission queue).
WorkloadSpec ShapeWorkload(Shape shape) {
  WorkloadSpec w = PyAesWorkload();
  if (shape == Shape::kGcpDrains) {
    w.io_wait = 5 * kSec;
  } else if (shape == Shape::kAwsAdmission || shape == Shape::kAwsReject429 ||
             shape == Shape::kAwsRejectNewest) {
    w.io_wait = 100 * kMicrosPerMilli;
  }
  return w;
}

// A 40 s burst at 25 rps, then to 400 s a 0.5 rps background with a 6 s
// burst at 20 rps every 30 s. The scaler grows the pool in each burst and
// retires it in the lull; a burst landing on a pool still shrinking after
// the last one meets a scale-down with busy sandboxes.
std::vector<MicroSecs> ShapeArrivals(uint64_t seed) {
  Rng rng(seed);
  std::vector<MicroSecs> arrivals = PoissonArrivals(25.0, 40 * kSec, rng);
  for (const MicroSecs t : PoissonArrivals(0.5, 360 * kSec, rng)) {
    arrivals.push_back(40 * kSec + t);
  }
  for (MicroSecs start = 64 * kSec; start < 400 * kSec; start += 30 * kSec) {
    for (const MicroSecs t : PoissonArrivals(20.0, 6 * kSec, rng)) {
      arrivals.push_back(start + t);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

using golden::Hex;

// Every PlatformSimResult field but destroyed_at and total_instance_seconds,
// as (name, rendered value) in declaration order.
golden::Fields Render(const PlatformSimResult& r) {
  StateDigest requests;
  for (const RequestOutcome& q : r.requests) {
    requests.MixI64(q.arrival);
    requests.MixI64(q.start_exec);
    requests.MixI64(q.completion);
    requests.MixI64(q.reported_duration);
    requests.MixI64(q.e2e_latency);
    requests.MixBool(q.cold_start);
    requests.MixI64(q.init_duration);
    requests.MixI64(q.sandbox_id);
    requests.MixI64(static_cast<int64_t>(q.outcome));
    requests.MixI64(static_cast<int64_t>(q.last_error));
    requests.MixI64(q.attempts);
  }
  StateDigest attempts;
  for (const AttemptOutcome& a : r.attempts) {
    attempts.MixI64(a.req_idx);
    attempts.MixI64(a.attempt);
    attempts.MixI64(static_cast<int64_t>(a.outcome));
    attempts.MixI64(a.dispatched);
    attempts.MixI64(a.start_exec);
    attempts.MixI64(a.end);
    attempts.MixI64(a.exec_duration);
    attempts.MixBool(a.cold_start);
    attempts.MixI64(a.init_duration);
    attempts.MixI64(a.sandbox_id);
    attempts.MixBool(a.client_abandoned);
  }
  StateDigest timeline;
  for (const TimelineSample& s : r.timeline) {
    timeline.MixI64(s.time);
    timeline.MixI64(s.instances);
    timeline.MixI64(s.ready_instances);
    timeline.MixI64(s.busy_requests);
    timeline.MixDouble(s.avg_utilization);
  }
  StateDigest sandboxes;
  for (const SandboxAccounting& s : r.sandboxes) {
    sandboxes.MixI64(s.sandbox_id);
    sandboxes.MixI64(s.created_at);
    sandboxes.MixI64(s.init_time);
    sandboxes.MixI64(s.busy_time);
    sandboxes.MixI64(s.idle_time);
  }
  const auto n = [](int64_t v) { return std::to_string(v); };
  return {
      {"requests", n(static_cast<int64_t>(r.requests.size()))},
      {"attempts", n(static_cast<int64_t>(r.attempts.size()))},
      {"timeline", n(static_cast<int64_t>(r.timeline.size()))},
      {"sandboxes", n(static_cast<int64_t>(r.sandboxes.size()))},
      {"request_rows", Hex(requests.value())},
      {"attempt_rows", Hex(attempts.value())},
      {"timeline_rows", Hex(timeline.value())},
      {"sandbox_rows", Hex(sandboxes.value())},
      {"cold_starts", n(r.cold_starts)},
      {"successes", n(r.successes)},
      {"failed_attempts", n(r.failed_attempts)},
      {"init_failure_attempts", n(r.init_failure_attempts)},
      {"crash_attempts", n(r.crash_attempts)},
      {"timeout_attempts", n(r.timeout_attempts)},
      {"rejected_attempts", n(r.rejected_attempts)},
      {"retries", n(r.retries)},
      {"circuit_open_attempts", n(r.circuit_open_attempts)},
      {"queue_timeout_attempts", n(r.queue_timeout_attempts)},
      {"shed_attempts", n(r.shed_attempts)},
      {"breaker_trips", n(r.breaker_trips)},
      {"drained_sandboxes", n(r.drained_sandboxes)},
      {"drain_killed_attempts", n(r.drain_killed_attempts)},
  };
}

struct Golden {
  Shape shape;
  uint64_t seed;
  const char* fields;  // Whitespace-separated name=value pairs.
};

// clang-format off
const Golden kGoldens[] = {
    {Shape::kGcpCrashes, 7,
     "requests=2632 attempts=3382 timeline=494 "
     "sandboxes=105 request_rows=0x67938fbf1074760b attempt_rows=0xa47978994e86ad95 "
     "timeline_rows=0x788545c9c82bb9e6 sandbox_rows=0xc2790f5af6b0c16c cold_starts=103 "
     "successes=2619 failed_attempts=763 init_failure_attempts=0 "
     "crash_attempts=763 timeout_attempts=0 rejected_attempts=0 "
     "retries=750 circuit_open_attempts=0 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kGcpDrains, 7,
     "requests=2632 attempts=2735 timeline=412 "
     "sandboxes=78 request_rows=0x229ae2c3c1a11aea attempt_rows=0xfb4cf82d4cd33462 "
     "timeline_rows=0x474de3c5284d4d4e sandbox_rows=0x82914bfb28830017 cold_starts=76 "
     "successes=2629 failed_attempts=106 init_failure_attempts=0 "
     "crash_attempts=106 timeout_attempts=0 rejected_attempts=0 "
     "retries=103 circuit_open_attempts=0 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=0 drained_sandboxes=6 "
     "drain_killed_attempts=11 "},
    {Shape::kAwsAdmission, 7,
     "requests=2632 attempts=5411 timeline=400 "
     "sandboxes=77 request_rows=0x03c544a4bc147134 attempt_rows=0x4eb374cff19d723d "
     "timeline_rows=0xcd9360129ac2d906 sandbox_rows=0xd5be4b5a0398f072 cold_starts=66 "
     "successes=1792 failed_attempts=3573 init_failure_attempts=3 "
     "crash_attempts=70 timeout_attempts=914 rejected_attempts=2586 "
     "retries=2779 circuit_open_attempts=0 queue_timeout_attempts=903 "
     "shed_attempts=2586 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kReject429, 7,
     "requests=2632 attempts=2902 timeline=407 "
     "sandboxes=64 request_rows=0x23a2b81e3eafe99c attempt_rows=0x9a6de3eb7bc9746b "
     "timeline_rows=0x88122684ce7b231f sandbox_rows=0x0b60b16081b14b8f cold_starts=64 "
     "successes=2617 failed_attempts=285 init_failure_attempts=0 "
     "crash_attempts=234 timeout_attempts=8 rejected_attempts=43 "
     "retries=270 circuit_open_attempts=0 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kAwsReject429, 7,
     "requests=2632 attempts=6621 timeline=400 "
     "sandboxes=63 request_rows=0x7779fd4d9dcdc328 attempt_rows=0x64c4e05112268bd9 "
     "timeline_rows=0x5a86cdf62bd910fd sandbox_rows=0x20ed7b4c0387f9f3 cold_starts=63 "
     "successes=1049 failed_attempts=5572 init_failure_attempts=3 "
     "crash_attempts=57 timeout_attempts=422 rejected_attempts=2883 "
     "retries=3989 circuit_open_attempts=2207 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=236 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kAwsRejectNewest, 7,
     "requests=2632 attempts=6611 timeline=401 "
     "sandboxes=92 request_rows=0x84c796ac60b52c5e attempt_rows=0xbbcbcf4a8b4b9912 "
     "timeline_rows=0xd82112c7f441d51c sandbox_rows=0xc575e94dc3b34b8f cold_starts=27 "
     "successes=993 failed_attempts=4757 init_failure_attempts=2 "
     "crash_attempts=84 timeout_attempts=688 rejected_attempts=3983 "
     "retries=3979 circuit_open_attempts=0 queue_timeout_attempts=623 "
     "shed_attempts=3983 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kGcpCrashes, 8,
     "requests=2722 attempts=3313 timeline=431 "
     "sandboxes=82 request_rows=0xdc305de42a8d23ba attempt_rows=0xef99dcc8dd817298 "
     "timeline_rows=0xbe6bd58d24b62bbb sandbox_rows=0xba5dd4c441aadfa3 cold_starts=80 "
     "successes=2702 failed_attempts=611 init_failure_attempts=0 "
     "crash_attempts=611 timeout_attempts=0 rejected_attempts=0 "
     "retries=591 circuit_open_attempts=0 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kGcpDrains, 8,
     "requests=2722 attempts=2858 timeline=415 "
     "sandboxes=75 request_rows=0x0d1eaec52c8179fd attempt_rows=0xcf1f798eefbd4eb8 "
     "timeline_rows=0x82042d65c81ef9ec sandbox_rows=0x402716f05ba04036 cold_starts=75 "
     "successes=2715 failed_attempts=143 init_failure_attempts=0 "
     "crash_attempts=143 timeout_attempts=0 rejected_attempts=0 "
     "retries=136 circuit_open_attempts=0 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=0 drained_sandboxes=17 "
     "drain_killed_attempts=37 "},
    {Shape::kAwsAdmission, 8,
     "requests=2722 attempts=5728 timeline=401 "
     "sandboxes=82 request_rows=0x6e32a67946f0d1c2 attempt_rows=0xd04431eff6b22bd4 "
     "timeline_rows=0x6108afc381a4a137 sandbox_rows=0xaa85ba041c5e6b1f cold_starts=66 "
     "successes=1781 failed_attempts=3898 init_failure_attempts=7 "
     "crash_attempts=71 timeout_attempts=875 rejected_attempts=2945 "
     "retries=3006 circuit_open_attempts=0 queue_timeout_attempts=859 "
     "shed_attempts=2945 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kReject429, 8,
     "requests=2722 attempts=3034 timeline=406 "
     "sandboxes=51 request_rows=0xde124743089a57c7 attempt_rows=0x18c18a8540d0faf7 "
     "timeline_rows=0x0a898feda9d37a23 sandbox_rows=0x30af8a1d96b5ac7b cold_starts=50 "
     "successes=2668 failed_attempts=366 init_failure_attempts=0 "
     "crash_attempts=177 timeout_attempts=6 rejected_attempts=183 "
     "retries=312 circuit_open_attempts=0 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kAwsReject429, 8,
     "requests=2722 attempts=6865 timeline=400 "
     "sandboxes=65 request_rows=0xfa6e423dd53c71e7 attempt_rows=0x4395dbdc368332df "
     "timeline_rows=0x6f4c80530501395b sandbox_rows=0xfe9da2a432c6e597 cold_starts=65 "
     "successes=1092 failed_attempts=5773 init_failure_attempts=2 "
     "crash_attempts=59 timeout_attempts=438 rejected_attempts=2924 "
     "retries=4143 circuit_open_attempts=2350 queue_timeout_attempts=0 "
     "shed_attempts=0 breaker_trips=248 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
    {Shape::kAwsRejectNewest, 8,
     "requests=2722 attempts=6570 timeline=401 "
     "sandboxes=67 request_rows=0x402724737739deb9 attempt_rows=0xaf9766ba6f270d28 "
     "timeline_rows=0xd7cca3650df927c4 sandbox_rows=0x147e49ca80527725 cold_starts=14 "
     "successes=1172 failed_attempts=4690 init_failure_attempts=0 "
     "crash_attempts=60 timeout_attempts=721 rejected_attempts=3909 "
     "retries=3848 circuit_open_attempts=0 queue_timeout_attempts=668 "
     "shed_attempts=3909 breaker_trips=0 drained_sandboxes=0 "
     "drain_killed_attempts=0 "},
};
// clang-format on

void ExpectGolden(Shape shape, uint64_t seed, const PlatformSimResult& r, const char* how) {
  const char* want = nullptr;
  for (const Golden& g : kGoldens) {
    if (g.shape == shape && g.seed == seed) {
      want = g.fields;
    }
  }
  golden::ExpectFields("Shape::" + std::string(ShapeName(shape)) + ", " + std::to_string(seed),
                       want, Render(r), how);
}

constexpr Shape kShapes[] = {Shape::kGcpCrashes,   Shape::kGcpDrains,
                             Shape::kAwsAdmission, Shape::kReject429,
                             Shape::kAwsReject429, Shape::kAwsRejectNewest};

PlatformSimResult RunStraight(Shape shape, uint64_t seed) {
  PlatformEngine engine(ShapeConfig(shape), seed);
  engine.Start(ShapeArrivals(seed), ShapeWorkload(shape));
  engine.RunToEnd();
  return engine.Finish();
}

// Number of sandboxes marked dead in a SaveState blob.
int DeadInState(const JsonValue& state) {
  int dead = 0;
  for (const JsonValue& s : state.At("sandboxes").GetArray()) {
    dead += s.At("dead").GetBool() ? 1 : 0;
  }
  return dead;
}

TEST(PlatformGolden, EveryFieldMatchesAcrossShapesAndSeeds) {
  for (const uint64_t seed : {7ULL, 8ULL}) {
    for (const Shape shape : kShapes) {
      ExpectGolden(shape, seed, RunStraight(shape, seed), "straight");
    }
  }
}

// The shapes exercise what they name: a golden of all zeros would pin
// nothing.
TEST(PlatformGolden, ShapesExerciseTheirMechanisms) {
  const PlatformSimResult crashes = RunStraight(Shape::kGcpCrashes, 7);
  EXPECT_GT(crashes.crash_attempts, 0);
  EXPECT_GT(crashes.retries, 0);
  EXPECT_GT(crashes.sandboxes.size(), 20u);
  const PlatformSimResult drains = RunStraight(Shape::kGcpDrains, 7);
  EXPECT_GT(drains.drained_sandboxes, 0);
  EXPECT_GT(drains.drain_killed_attempts, 0);
  const PlatformSimResult admission = RunStraight(Shape::kAwsAdmission, 7);
  EXPECT_GT(admission.queue_timeout_attempts, 0);
  EXPECT_GT(admission.shed_attempts, 0);
  EXPECT_GT(admission.init_failure_attempts, 0);
  int abandoned = 0;
  for (const AttemptOutcome& a : admission.attempts) {
    abandoned += a.client_abandoned ? 1 : 0;
  }
  EXPECT_GT(abandoned, 0);
  const PlatformSimResult rejects = RunStraight(Shape::kReject429, 7);
  EXPECT_GT(rejects.rejected_attempts, 0);
  EXPECT_GT(rejects.timeout_attempts, 0);
  const PlatformSimResult aws429 = RunStraight(Shape::kAwsReject429, 7);
  EXPECT_GT(aws429.rejected_attempts, 0);
  EXPECT_EQ(aws429.shed_attempts, 0);
  EXPECT_GT(aws429.timeout_attempts, 0);
  EXPECT_GT(aws429.circuit_open_attempts, 0);
  EXPECT_GT(aws429.breaker_trips, 0);
  const PlatformSimResult newest = RunStraight(Shape::kAwsRejectNewest, 7);
  EXPECT_GT(newest.shed_attempts, 0);
  EXPECT_GT(newest.queue_timeout_attempts, 0);
  EXPECT_GT(newest.init_failure_attempts, 0);
}

// Slicing the run and restoring it from a mid-run checkpoint reach the same
// fields. The live-sandbox list and the CPU-phase counts are not in the
// checkpoint; LoadState rebuilds them from the sandbox table.
TEST(PlatformGolden, SlicedAndResumedRunsMatchTheGoldens) {
  for (const uint64_t seed : {7ULL, 8ULL}) {
    const std::vector<MicroSecs> arrivals = ShapeArrivals(seed);
    for (const Shape shape : kShapes) {
      const PlatformSimConfig cfg = ShapeConfig(shape);

      PlatformEngine sliced(cfg, seed);
      sliced.Start(arrivals, ShapeWorkload(shape));
      for (MicroSecs t = 0; !sliced.done(); t += 7 * kSec) {
        sliced.AdvanceUntil(t);
      }
      ExpectGolden(shape, seed, sliced.Finish(), "sliced");

      PlatformEngine first(cfg, seed);
      first.Start(arrivals, ShapeWorkload(shape));
      first.AdvanceUntil(kCheckpointAt);
      ASSERT_FALSE(first.done());
      JsonWriter w;
      first.SaveState(w);
      const JsonValue state = ParseJson(w.str());
      EXPECT_GT(DeadInState(state), 0) << ShapeName(shape) << " seed " << seed;
      PlatformEngine resumed(cfg, seed);
      resumed.LoadState(state);
      EXPECT_EQ(resumed.Digest(), first.Digest());
      resumed.RunToEnd();
      ExpectGolden(shape, seed, resumed.Finish(), "resumed");
    }
  }
}

// A full in-run auditor scanning after every event, the live-sandbox list
// and the CPU-phase counts included, raises nothing before the checkpoint or
// after LoadState rebuilt that derived state, and leaves the result
// unchanged.
TEST(PlatformGolden, AuditedEveryEventAcrossResumeMatches) {
  for (const Shape shape : kShapes) {
    Auditor auditor(AuditLevel::kFull, /*scan_cadence_events=*/1);
    PlatformSimConfig cfg = ShapeConfig(shape);
    cfg.auditor = &auditor;
    PlatformEngine first(cfg, 7);
    first.Start(ShapeArrivals(7), ShapeWorkload(shape));
    first.AdvanceUntil(kCheckpointAt);
    JsonWriter w;
    first.SaveState(w);
    PlatformEngine resumed(cfg, 7);
    resumed.LoadState(ParseJson(w.str()));
    resumed.RunToEnd();
    EXPECT_GT(auditor.scans_run(), 1'000) << ShapeName(shape);
    ExpectGolden(shape, 7, resumed.Finish(), "audited");
  }
}

// Each sandbox's accounting closes when the sandbox does: destroyed_at is
// its lifetime span's end, retired mid-run or at the last event, and
// total_instance_seconds sums those lifetimes.
TEST(PlatformGolden, SandboxLifetimesEndAtRetirement) {
  for (const Shape shape : kShapes) {
    PlatformSimConfig cfg = ShapeConfig(shape);
    SpanCollector sink;
    cfg.trace = &sink;
    PlatformEngine engine(cfg, 7);
    engine.Start(ShapeArrivals(7), ShapeWorkload(shape));
    engine.RunToEnd();
    const MicroSecs end = engine.now();
    const PlatformSimResult r = engine.Finish();

    std::map<int64_t, const Span*> life;
    for (const Span& sp : sink.spans()) {
      if (sp.kind == SpanKind::kSandboxLife) {
        ASSERT_TRUE(life.emplace(sp.sandbox_id, &sp).second) << sp.sandbox_id;
      }
    }
    ASSERT_EQ(life.size(), r.sandboxes.size()) << ShapeName(shape);
    double lifetimes = 0.0;
    int retired_early = 0;
    for (const SandboxAccounting& acc : r.sandboxes) {
      const Span& sp = *life.at(acc.sandbox_id);
      EXPECT_EQ(acc.created_at, sp.start) << ShapeName(shape) << " " << acc.sandbox_id;
      EXPECT_EQ(acc.destroyed_at, sp.start + sp.duration)
          << ShapeName(shape) << " sandbox " << acc.sandbox_id;
      EXPECT_LE(acc.init_time + acc.busy_time + acc.idle_time,
                acc.destroyed_at - acc.created_at);
      retired_early += acc.destroyed_at < end ? 1 : 0;
      lifetimes += MicrosToSecs(sp.duration);
    }
    EXPECT_GT(retired_early, 0) << ShapeName(shape);
    EXPECT_DOUBLE_EQ(r.total_instance_seconds, lifetimes) << ShapeName(shape);
  }
}

}  // namespace
}  // namespace faascost
