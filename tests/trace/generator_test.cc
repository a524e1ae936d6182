#include "src/trace/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/stats.h"
#include "src/trace/summary.h"

namespace faascost {
namespace {

TraceGenConfig SmallConfig() {
  TraceGenConfig cfg;
  cfg.num_requests = 200'000;
  cfg.num_functions = 2'000;
  return cfg;
}

class TraceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generator_ = new TraceGenerator(SmallConfig(), 12345);
    trace_ = new std::vector<RequestRecord>(generator_->Generate());
    stats_ = new TraceStats(ComputeTraceStats(*trace_));
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete trace_;
    delete generator_;
    stats_ = nullptr;
    trace_ = nullptr;
    generator_ = nullptr;
  }

  static TraceGenerator* generator_;
  static std::vector<RequestRecord>* trace_;
  static TraceStats* stats_;
};

TraceGenerator* TraceFixture::generator_ = nullptr;
std::vector<RequestRecord>* TraceFixture::trace_ = nullptr;
TraceStats* TraceFixture::stats_ = nullptr;

TEST_F(TraceFixture, RequestCount) { EXPECT_EQ(trace_->size(), 200'000u); }

TEST_F(TraceFixture, SortedByArrival) {
  EXPECT_TRUE(std::is_sorted(trace_->begin(), trace_->end(),
                             [](const RequestRecord& a, const RequestRecord& b) {
                               return a.arrival < b.arrival;
                             }));
}

TEST_F(TraceFixture, MeanExecDurationCalibrated) {
  // Paper: 58.19 ms mean execution duration in the Huawei traces.
  EXPECT_NEAR(stats_->mean_exec_ms, 58.19, 58.19 * 0.15);
}

TEST_F(TraceFixture, MeanCpuTimeCalibrated) {
  // Paper: 33.1 ms mean consumed CPU time.
  EXPECT_NEAR(stats_->mean_cpu_time_ms, 33.1, 33.1 * 0.25);
}

TEST_F(TraceFixture, CpuUtilizationFractionBelowHalf) {
  // Paper: more than 42% of requests use less than 50% of the allotted CPU.
  EXPECT_GT(stats_->frac_cpu_util_below_half, 0.42);
  EXPECT_LT(stats_->frac_cpu_util_below_half, 0.75);
}

TEST_F(TraceFixture, MemUtilizationFractionBelowHalf) {
  // Paper: around 88% of requests use less than half the allotted memory.
  EXPECT_NEAR(stats_->frac_mem_util_below_half, 0.88, 0.05);
}

TEST_F(TraceFixture, UtilizationCorrelationCalibrated) {
  // Paper: Pearson correlation of CPU and memory utilization ~ 0.397.
  EXPECT_NEAR(stats_->util_pearson, 0.397, 0.08);
}

TEST_F(TraceFixture, ColdStartFraction) {
  EXPECT_NEAR(stats_->cold_start_fraction, SmallConfig().cold_start_fraction, 0.002);
}

TEST_F(TraceFixture, UtilizationsInUnitInterval) {
  for (const auto& r : *trace_) {
    const double cu = r.CpuUtilization();
    const double mu = r.MemUtilization();
    EXPECT_GE(cu, 0.0);
    EXPECT_LE(cu, 1.0001);
    EXPECT_GE(mu, 0.0);
    EXPECT_LE(mu, 1.0001);
  }
}

TEST_F(TraceFixture, AllocationsComeFromCombos) {
  std::set<std::pair<double, double>> combos;
  for (const auto& c : SmallConfig().combos) {
    combos.insert({c.vcpus, c.mem_mb});
  }
  for (const auto& r : *trace_) {
    EXPECT_TRUE(combos.count({r.alloc_vcpus, r.alloc_mem_mb}) > 0)
        << r.alloc_vcpus << " " << r.alloc_mem_mb;
  }
}

TEST_F(TraceFixture, ColdStartsHaveInitDurations) {
  for (const auto& r : *trace_) {
    if (r.cold_start) {
      EXPECT_GT(r.init_duration, 0);
    } else {
      EXPECT_EQ(r.init_duration, 0);
    }
  }
}

TEST_F(TraceFixture, ArrivalsWithinWindow) {
  for (const auto& r : *trace_) {
    EXPECT_GE(r.arrival, 0);
    EXPECT_LT(r.arrival, SmallConfig().window);
  }
}

TEST(TraceGenerator, DeterministicForSeed) {
  TraceGenConfig cfg;
  cfg.num_requests = 5'000;
  cfg.num_functions = 100;
  TraceGenerator a(cfg, 7);
  TraceGenerator b(cfg, 7);
  const auto ta = a.Generate();
  const auto tb = b.Generate();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].exec_duration, tb[i].exec_duration);
    EXPECT_EQ(ta[i].cpu_time, tb[i].cpu_time);
    EXPECT_EQ(ta[i].function_id, tb[i].function_id);
  }
}

TEST(TraceGenerator, DifferentSeedsDiffer) {
  TraceGenConfig cfg;
  cfg.num_requests = 1'000;
  cfg.num_functions = 100;
  const auto ta = TraceGenerator(cfg, 1).Generate();
  const auto tb = TraceGenerator(cfg, 2).Generate();
  int same = 0;
  for (size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].exec_duration == tb[i].exec_duration) {
      ++same;
    }
  }
  EXPECT_LT(same, 50);
}

TEST(TraceGenerator, LifecyclesColdStartCalibration) {
  // Paper Fig. 4: 42.1% of cold starts consume at least as many billable
  // resources during initialization as all subsequent requests combined.
  TraceGenerator gen(SmallConfig(), 99);
  const auto lifecycles = gen.GenerateLifecycles(30'000);
  ASSERT_EQ(lifecycles.size(), 30'000u);
  size_t nonpos = 0;
  for (const auto& lc : lifecycles) {
    MicroSecs total = 0;
    for (MicroSecs d : lc.request_durations) {
      total += d;
    }
    if (total <= lc.init_duration) {
      ++nonpos;
    }
  }
  const double frac = static_cast<double>(nonpos) / 30'000.0;
  EXPECT_NEAR(frac, 0.421, 0.08);
}

TEST(TraceGenerator, LifecyclesHaveAtLeastOneRequest) {
  TraceGenConfig cfg;
  cfg.num_functions = 50;
  TraceGenerator gen(cfg, 3);
  for (const auto& lc : gen.GenerateLifecycles(2'000)) {
    EXPECT_GE(lc.request_durations.size(), 1u);
    EXPECT_GT(lc.init_duration, 0);
    EXPECT_GT(lc.alloc_vcpus, 0.0);
  }
}

TEST(Kumaraswamy, QuantileCdfRoundTrip) {
  const KumaraswamyParams k{1.6, 1.448};
  for (double u = 0.05; u < 1.0; u += 0.05) {
    const double x = k.Quantile(u);
    EXPECT_NEAR(k.Cdf(x), u, 1e-9);
  }
}

TEST(Kumaraswamy, QuantileMonotone) {
  const KumaraswamyParams k{1.2, 1.5};
  double prev = -1.0;
  for (double u = 0.01; u < 1.0; u += 0.01) {
    const double x = k.Quantile(u);
    EXPECT_GT(x, prev);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    prev = x;
  }
}

TEST(Kumaraswamy, CdfAtBounds) {
  const KumaraswamyParams k{2.0, 3.0};
  EXPECT_DOUBLE_EQ(k.Cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Cdf(1.0), 1.0);
}

TEST(StdNormalCdf, KnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(StdNormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(StdNormalCdf(-1.96), 0.025, 1e-3);
}

TEST(TraceSummary, EmptyTrace) {
  const TraceStats s = ComputeTraceStats({});
  EXPECT_EQ(s.num_requests, 0u);
  EXPECT_EQ(s.mean_exec_ms, 0.0);
}

TEST(TraceSummary, HandComputedRecord) {
  RequestRecord r;
  r.exec_duration = 100 * kMicrosPerMilli;
  r.cpu_time = 50 * kMicrosPerMilli;
  r.alloc_vcpus = 1.0;
  r.alloc_mem_mb = 1000.0;
  r.used_mem_mb = 250.0;
  const TraceStats s = ComputeTraceStats({r});
  EXPECT_DOUBLE_EQ(s.mean_exec_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_cpu_time_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.mean_cpu_util, 0.5);
  EXPECT_DOUBLE_EQ(s.mean_mem_util, 0.25);
}

TEST(RequestRecord, UtilizationEdgeCases) {
  RequestRecord r;
  EXPECT_EQ(r.CpuUtilization(), 0.0);
  EXPECT_EQ(r.MemUtilization(), 0.0);
}

TEST(PayloadSynthesis, OffByDefaultAndOtherFieldsUnaffectedWhenOn) {
  TraceGenConfig base;
  base.num_requests = 5'000;
  base.num_functions = 100;
  const auto plain = TraceGenerator(base, 11).Generate();
  for (const auto& r : plain) {
    EXPECT_EQ(r.req_bytes, 0);
    EXPECT_EQ(r.resp_bytes, 0);
  }

  TraceGenConfig with = base;
  with.payload_request_mean_kb = 64.0;
  with.payload_response_mean_kb = 256.0;
  const auto sized = TraceGenerator(with, 11).Generate();
  ASSERT_EQ(sized.size(), plain.size());
  double mean_req = 0.0;
  for (size_t i = 0; i < plain.size(); ++i) {
    // Payload draws come from their own stream: every pre-existing field is
    // bit-identical to the payload-less trace of the same seed.
    EXPECT_EQ(sized[i].function_id, plain[i].function_id);
    EXPECT_EQ(sized[i].arrival, plain[i].arrival);
    EXPECT_EQ(sized[i].exec_duration, plain[i].exec_duration);
    EXPECT_EQ(sized[i].cpu_time, plain[i].cpu_time);
    EXPECT_EQ(sized[i].cold_start, plain[i].cold_start);
    EXPECT_GT(sized[i].req_bytes, 0);
    EXPECT_GT(sized[i].resp_bytes, 0);
    mean_req += static_cast<double>(sized[i].req_bytes);
  }
  mean_req /= static_cast<double>(sized.size());
  // Lognormal mean calibration, loose band (heavy tail, 5k samples).
  EXPECT_GT(mean_req, 64.0 * 1024.0 * 0.7);
  EXPECT_LT(mean_req, 64.0 * 1024.0 * 1.5);

  // Same seed, same payloads.
  const auto again = TraceGenerator(with, 11).Generate();
  for (size_t i = 0; i < sized.size(); ++i) {
    ASSERT_EQ(again[i].req_bytes, sized[i].req_bytes);
    ASSERT_EQ(again[i].resp_bytes, sized[i].resp_bytes);
  }
}

// A huge finite mean puts nearly every draw past int64's range; each one is
// clamped to the cap before it becomes a byte count.
TEST(PayloadSynthesis, DrawsClampToTheCap) {
  TraceGenConfig cfg;
  cfg.num_requests = 200;
  cfg.num_functions = 10;
  cfg.payload_request_mean_kb = 1e300;
  cfg.payload_response_mean_kb = 1e300;
  for (const auto& r : TraceGenerator(cfg, 3).Generate()) {
    ASSERT_EQ(r.req_bytes, kMaxPayloadBytes);
    ASSERT_EQ(r.resp_bytes, kMaxPayloadBytes);
  }
}

// Duration draws are lognormal too: a mean no draw fits in int64 clamps each
// one to the duration ceiling before it becomes microseconds.
TEST(TraceGenerator, DurationDrawsClampToTheCeiling) {
  TraceGenConfig cfg;
  cfg.num_requests = 200;
  cfg.num_functions = 10;
  cfg.exec_mean_ms = 1e300;
  TraceGenerator gen(cfg, 3);
  for (const auto& r : gen.Generate()) {
    ASSERT_EQ(r.exec_duration, kMaxDuration);
    ASSERT_GE(r.cpu_time, 1);
    ASSERT_LE(r.cpu_time, kMaxDuration);
  }
  for (const auto& lc : gen.GenerateLifecycles(20)) {
    for (const MicroSecs d : lc.request_durations) {
      ASSERT_EQ(d, kMaxDuration);
    }
  }
}

}  // namespace
}  // namespace faascost
