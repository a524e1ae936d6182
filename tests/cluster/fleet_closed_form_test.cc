// A closed-form oracle for the fleet engine's warm path. One function gets n
// requests at times i.i.d. uniform over a window T, each running d, under a
// fixed keep-alive K measured from completion. The first request is cold; a
// later one reuses its predecessor's sandbox iff it arrives between d and
// d + K after it. With λ = n/T the gap is about exponential, so
//
//   E[cold starts] = 1 + (n − 1)·(1 − e^(−λd)·(1 − e^(−λK))),
//
// which is 1 + (n − 1)·e^(−λK) when executions are short (λd → 0). The
// formula has no term for a request that overlaps two others, so it holds
// only where overlaps are rare: here K = 300 s and 100 to 1,000 requests per
// function per day, so λK ≤ 3.5.
//
// The engine runs with faults off on the trace generator's uniform arrivals
// (zipf_exponent = 0, so the functions share the load evenly); each
// function's expectation uses its own request count.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/trace/generator.h"

namespace faascost {
namespace {

constexpr MicroSecs kDay = 86'400 * kMicrosPerSec;
constexpr MicroSecs kKeepAlive = 300 * kMicrosPerSec;

// E[cold starts] of `n` requests uniform over `window`, each running `exec`.
double ExpectedColdStarts(int64_t n, MicroSecs window, MicroSecs exec) {
  const double rate = static_cast<double>(n) / static_cast<double>(window);
  const double warm = std::exp(-rate * static_cast<double>(exec)) *
                      (1.0 - std::exp(-rate * static_cast<double>(kKeepAlive)));
  return 1.0 + static_cast<double>(n - 1) * (1.0 - warm);
}

struct Shape {
  int functions;
  int64_t per_function;  // Requests per function per day.
  int seeds;
  MicroSecs exec;  // 0: the generator's own executions, ~58 ms on average.
};

// Observed over expected cold starts, one ratio per seed.
std::vector<double> Ratios(const Shape& shape) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  FleetSimConfig cfg;
  cfg.keepalive = kKeepAlive;
  std::vector<double> ratios;
  for (int seed = 1; seed <= shape.seeds; ++seed) {
    TraceGenConfig tcfg;
    tcfg.num_requests = shape.functions * shape.per_function;
    tcfg.num_functions = shape.functions;
    tcfg.zipf_exponent = 0.0;
    tcfg.window = kDay;
    std::vector<RequestRecord> trace =
        TraceGenerator(tcfg, static_cast<uint64_t>(seed)).Generate();
    std::map<int64_t, int64_t> requests;
    for (RequestRecord& r : trace) {
      ++requests[r.function_id];
      if (shape.exec > 0) {
        r.exec_duration = r.cpu_time = shape.exec;
      }
    }
    double expected = 0.0;
    for (const auto& [fid, n] : requests) {
      expected += ExpectedColdStarts(n, kDay, shape.exec);
    }
    const FleetResult res = SimulateFleet(trace, billing, cfg);
    EXPECT_EQ(res.failed_attempts, 0);
    ratios.push_back(static_cast<double>(res.cold_starts) / expected);
  }
  return ratios;
}

// Per seed the ratio spreads with a standard deviation of 0.05 (1 function,
// 100 requests a day) to 0.13 (1 function, 1,000 a day), and of 0.008 to
// 0.017 over 50 functions; the seed counts below bring each mean's standard
// error to 0.007 or less. The means sit between 0.989 and 1.021, the top
// from the overlaps the formula leaves out at λK = 3.5. The band is that
// range widened by three such standard errors on each side, and holds only
// while the means are that precise.
constexpr double kLow = 0.97;
constexpr double kHigh = 1.04;
constexpr double kMaxStandardError = 0.01;

// Rows with 60 s executions put the keep-alive's anchor in view: a window
// measured from dispatch ends d early, so about λd = 7% more requests find
// the sandbox gone, and the mean leaves the band.
TEST(FleetClosedForm, ColdStartsMatchTheClosedForm) {
  const Shape shapes[] = {
      {1, 100, 400, 0},  {1, 1'000, 400, 0},  {1, 100, 400, 60 * kMicrosPerSec},
      {50, 100, 20, 0},  {50, 1'000, 20, 0},  {50, 100, 20, 60 * kMicrosPerSec},
  };
  for (const Shape& shape : shapes) {
    const std::vector<double> ratios = Ratios(shape);
    double sum = 0.0;
    double squares = 0.0;
    for (const double r : ratios) {
      sum += r;
      squares += r * r;
    }
    const auto seeds = static_cast<double>(ratios.size());
    const double mean = sum / seeds;
    const double standard_error = std::sqrt((squares / seeds - mean * mean) / seeds);
    const std::string label = std::to_string(shape.functions) + " functions x " +
                              std::to_string(shape.per_function) + "/day, exec " +
                              std::to_string(shape.exec) + " us";
    EXPECT_GE(mean, kLow) << label;
    EXPECT_LE(mean, kHigh) << label;
    EXPECT_LE(standard_error, kMaxStandardError) << label;
  }
}

}  // namespace
}  // namespace faascost
