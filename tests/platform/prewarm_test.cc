// Tests for the histogram-based predictive keep-alive policy (paper §3.3:
// Azure pre-warms functions whose cold starts recur at regular intervals,
// learned from idle-time histograms; the paper's own runs were too short for
// the platform to learn, so they saw consistent cold starts).

#include <gtest/gtest.h>

#include <vector>

#include "src/platform/keepalive.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;

TEST(HistogramPrewarm, FallbackWindowBeforeTraining) {
  const KeepAlivePolicy policy = MakeHistogramPrewarm();
  const IdleHistogram history(policy.prewarm());
  Rng rng(1);
  EXPECT_EQ(history.LearnedWindow(), 0);
  for (int i = 0; i < 200; ++i) {
    const MicroSecs d = policy.SampleDuration(rng, 1, history);
    EXPECT_GE(d, 120 * kSec);
    EXPECT_LE(d, 360 * kSec);
  }
}

TEST(HistogramPrewarm, LearnsRegularInterval) {
  const KeepAlivePolicy policy = MakeHistogramPrewarm();
  IdleHistogram history(policy.prewarm());
  for (int i = 0; i < 20; ++i) {
    history.Observe(400 * kSec);
  }
  EXPECT_EQ(history.observations(), 20);
  const MicroSecs learned = history.LearnedWindow();
  // Must cover the 400 s interval (bin edge x margin).
  EXPECT_GE(learned, 400 * kSec);
  EXPECT_LE(learned, 600 * kSec);
  Rng rng(2);
  EXPECT_EQ(policy.SampleDuration(rng, 1, history), learned);
  // A policy without pre-warming ignores what the history learned.
  Rng fixed_rng(2);
  EXPECT_EQ(MakeFixedKeepAlive(5 * kSec, KaResourceBehavior::kRunAsUsual)
                .SampleDuration(fixed_rng, 1, history),
            5 * kSec);
}

TEST(HistogramPrewarm, NotTrustedBelowMinObservations) {
  HistogramPrewarmConfig cfg;
  cfg.min_observations = 10;
  IdleHistogram history(cfg);
  for (int i = 0; i < 9; ++i) {
    history.Observe(400 * kSec);
  }
  EXPECT_EQ(history.LearnedWindow(), 0);
  history.Observe(400 * kSec);
  EXPECT_GT(history.LearnedWindow(), 0);
}

TEST(HistogramPrewarm, CoversTheConfiguredQuantile) {
  HistogramPrewarmConfig cfg;
  cfg.coverage_quantile = 0.5;
  cfg.margin = 1.0;
  IdleHistogram history(cfg);
  // 50 short intervals and 10 long ones: the median covers only the short.
  for (int i = 0; i < 50; ++i) {
    history.Observe(60 * kSec);
  }
  for (int i = 0; i < 10; ++i) {
    history.Observe(1'800 * kSec);
  }
  const MicroSecs learned = history.LearnedWindow();
  EXPECT_GE(learned, 60 * kSec);
  EXPECT_LT(learned, 300 * kSec);
}

TEST(HistogramPrewarm, CappedAtMaxKeepalive) {
  HistogramPrewarmConfig cfg;
  cfg.max_keepalive = 600 * kSec;
  IdleHistogram history(cfg);
  for (int i = 0; i < 20; ++i) {
    history.Observe(5'000 * kSec);
  }
  EXPECT_LE(history.LearnedWindow(), 600 * kSec);
}

TEST(HistogramPrewarm, NegativeIntervalsIgnored) {
  IdleHistogram history(HistogramPrewarmConfig{});
  history.Observe(-5);
  EXPECT_EQ(history.observations(), 0);
}

TEST(HistogramPrewarm, NoConfigLearnsNothing) {
  IdleHistogram history;
  for (int i = 0; i < 20; ++i) {
    history.Observe(400 * kSec);
  }
  EXPECT_EQ(history.observations(), 0);
  EXPECT_EQ(history.LearnedWindow(), 0);
}

// --- Platform-level behaviour ---

PlatformSimConfig PrewarmPlatform() {
  PlatformSimConfig cfg = AzurePlatform();
  cfg.keepalive = MakeHistogramPrewarm();
  cfg.autoscaler_enabled = false;
  return cfg;
}

TEST(HistogramPrewarmPlatform, ShortTestPeriodStillSeesColdStarts) {
  // Paper: "we did not observe such behavior ... probably due to the test
  // period being too short for Azure to learn traffic patterns."
  PlatformSim sim(PrewarmPlatform(), 3);
  // Only 4 probes at 420 s idle (beyond the 360 s fallback): all cold.
  const std::vector<MicroSecs> arrivals = {0, 430 * kSec, 860 * kSec, 1'290 * kSec};
  const auto result = sim.Run(arrivals, MinimalWorkload());
  int cold = 0;
  for (const auto& r : result.requests) {
    cold += r.cold_start ? 1 : 0;
  }
  EXPECT_GE(cold, 3);  // Everything except possibly a lucky fallback draw.
}

TEST(HistogramPrewarmPlatform, LongTrainingEliminatesColdStarts) {
  PlatformSimConfig cfg = PrewarmPlatform();
  PlatformSim sim(cfg, 4);
  // 30 requests at a regular 420 s interval: after ~10 the histogram covers
  // the gap and the sandbox stays warm.
  std::vector<MicroSecs> arrivals;
  for (int i = 0; i < 30; ++i) {
    arrivals.push_back(static_cast<MicroSecs>(i) * 430 * kSec);
  }
  const auto result = sim.Run(arrivals, MinimalWorkload());
  int late_cold = 0;
  for (size_t i = 15; i < result.requests.size(); ++i) {
    late_cold += result.requests[i].cold_start ? 1 : 0;
  }
  EXPECT_EQ(late_cold, 0);
  // But the early phase (untrained) did see cold starts.
  int early_cold = 0;
  for (size_t i = 0; i < 10; ++i) {
    early_cold += result.requests[i].cold_start ? 1 : 0;
  }
  EXPECT_GE(early_cold, 5);
}

void ExpectSameResults(const PlatformSimResult& a, const PlatformSimResult& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    const RequestOutcome& x = a.requests[i];
    const RequestOutcome& y = b.requests[i];
    EXPECT_EQ(x.arrival, y.arrival) << i;
    EXPECT_EQ(x.start_exec, y.start_exec) << i;
    EXPECT_EQ(x.completion, y.completion) << i;
    EXPECT_EQ(x.reported_duration, y.reported_duration) << i;
    EXPECT_EQ(x.e2e_latency, y.e2e_latency) << i;
    EXPECT_EQ(x.cold_start, y.cold_start) << i;
    EXPECT_EQ(x.init_duration, y.init_duration) << i;
    EXPECT_EQ(x.sandbox_id, y.sandbox_id) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.attempts, y.attempts) << i;
  }
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    const AttemptOutcome& x = a.attempts[i];
    const AttemptOutcome& y = b.attempts[i];
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.dispatched, y.dispatched) << i;
    EXPECT_EQ(x.start_exec, y.start_exec) << i;
    EXPECT_EQ(x.end, y.end) << i;
    EXPECT_EQ(x.exec_duration, y.exec_duration) << i;
    EXPECT_EQ(x.cold_start, y.cold_start) << i;
    EXPECT_EQ(x.sandbox_id, y.sandbox_id) << i;
  }
  ASSERT_EQ(a.sandboxes.size(), b.sandboxes.size());
  for (size_t i = 0; i < a.sandboxes.size(); ++i) {
    EXPECT_EQ(a.sandboxes[i].created_at, b.sandboxes[i].created_at) << i;
    EXPECT_EQ(a.sandboxes[i].destroyed_at, b.sandboxes[i].destroyed_at) << i;
    EXPECT_EQ(a.sandboxes[i].idle_time, b.sandboxes[i].idle_time) << i;
  }
  EXPECT_EQ(a.timeline.size(), b.timeline.size());
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_DOUBLE_EQ(a.total_instance_seconds, b.total_instance_seconds);
}

// What a run learns stays in its engine: runs from one config, on one sim or
// two, are the same run, not a first run that trains the next.
TEST(HistogramPrewarmPlatform, RunsFromOneConfigAreEqual) {
  const PlatformSimConfig cfg = PrewarmPlatform();
  std::vector<MicroSecs> arrivals;
  for (int i = 0; i < 30; ++i) {
    arrivals.push_back(static_cast<MicroSecs>(i) * 430 * kSec);
  }
  PlatformSim sim(cfg, 4);
  const PlatformSimResult first = sim.Run(arrivals, MinimalWorkload());
  EXPECT_GE(first.cold_starts, 5);  // The untrained phase is cold.
  ExpectSameResults(first, sim.Run(arrivals, MinimalWorkload()));
  ExpectSameResults(first, PlatformSim(cfg, 4).Run(arrivals, MinimalWorkload()));
}

TEST(HistogramPrewarmPlatform, IrregularTrafficKeepsFallback) {
  PlatformSimConfig cfg = PrewarmPlatform();
  PlatformSim sim(cfg, 5);
  // Dense traffic (1 s gaps) teaches a tiny window; a later 420 s gap is a
  // cold start again.
  std::vector<MicroSecs> arrivals;
  for (int i = 0; i < 30; ++i) {
    arrivals.push_back(static_cast<MicroSecs>(i) * 1 * kSec);
  }
  arrivals.push_back(29 * kSec + 420 * kSec);
  const auto result = sim.Run(arrivals, MinimalWorkload());
  EXPECT_TRUE(result.requests.back().cold_start);
}

}  // namespace
}  // namespace faascost
