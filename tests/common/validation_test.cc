// Release-mode input-validation regressions. The default build compiles with
// NDEBUG (RelWithDebInfo), so these contracts cannot live in assert(): each
// check below must hold in *every* build type. This is faaslint rule R4
// (assert-only validation of external input) applied to src/common by hand.

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sched/config.h"

namespace faascost {
namespace {

TEST(ValidationTest, EmpiricalCdfQuantileRejectsOutOfRangeQ) {
  const EmpiricalCdf cdf({1.0, 2.0, 3.0});
  EXPECT_THROW(cdf.Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(cdf.Quantile(-0.5), std::invalid_argument);
  EXPECT_THROW(cdf.Quantile(1.5), std::invalid_argument);
  EXPECT_NO_THROW(cdf.Quantile(0.5));
  // Empty CDF keeps its documented 0.0 result, q unchecked.
  EXPECT_EQ(EmpiricalCdf({}).Quantile(9.0), 0.0);
}

TEST(ValidationTest, RngRejectsInvalidParameters) {
  Rng rng(7);
  EXPECT_THROW(rng.UniformInt(5, 4), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.Gamma(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.Gamma(1.0, -2.0), std::invalid_argument);
  EXPECT_THROW(ZipfTable(0, 1.1), std::invalid_argument);
  EXPECT_NO_THROW(rng.UniformInt(4, 4));
  EXPECT_NO_THROW(rng.Exponential(2.5));
  EXPECT_NO_THROW(rng.Gamma(0.5, 1.0));
}

TEST(ValidationTest, RngRejectionDoesNotConsumeEngineState) {
  // A rejected call must not advance the stream: determinism depends on the
  // draw sequence being exactly the configured one.
  Rng a(42);
  Rng b(42);
  EXPECT_THROW(a.UniformInt(9, 1), std::invalid_argument);
  EXPECT_THROW(a.Exponential(-1.0), std::invalid_argument);
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(ValidationTest, PercentileRejectsOutOfRangePct) {
  const std::vector<double> sorted{1.0, 2.0, 3.0};
  EXPECT_THROW(PercentileOfSorted(sorted, -1.0), std::invalid_argument);
  EXPECT_THROW(PercentileOfSorted(sorted, 100.5), std::invalid_argument);
  EXPECT_THROW(PercentileOfSorted(sorted, std::nan("")), std::invalid_argument);
  EXPECT_NO_THROW(PercentileOfSorted(sorted, 0.0));
  EXPECT_NO_THROW(PercentileOfSorted(sorted, 100.0));
  // Empty input keeps its documented 0.0 result.
  EXPECT_EQ(PercentileOfSorted({}, 250.0), 0.0);
}

TEST(ValidationTest, PearsonCorrelationRejectsLengthMismatch) {
  EXPECT_THROW(PearsonCorrelation({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_NO_THROW(PearsonCorrelation({1.0, 2.0}, {2.0, 4.0}));
}

TEST(ValidationTest, SchedConfigRejectsBadParameters) {
  EXPECT_THROW(MakeSchedConfig(0, 0.5, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(-20, 0.5, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(20000, 0.0, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(20000, -0.1, 250), std::invalid_argument);
  EXPECT_THROW(MakeSchedConfig(20000, 0.5, 0), std::invalid_argument);
  EXPECT_NO_THROW(MakeSchedConfig(20000, 0.5, 250));
}

TEST(ValidationTest, BucketEconomicsRejectsNonPositiveBucketCount) {
  const FleetResult result;
  const std::vector<RequestRecord> trace;
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  const FleetSimConfig config;
  EXPECT_THROW(BucketEconomics(result, trace, billing, config, 0),
               std::invalid_argument);
  EXPECT_THROW(BucketEconomics(result, trace, billing, config, -3),
               std::invalid_argument);
  EXPECT_NO_THROW(BucketEconomics(result, trace, billing, config, 4));
}

}  // namespace
}  // namespace faascost
