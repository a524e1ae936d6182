#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <vector>

namespace faascost {
namespace {

TEST(EmpiricalCdf, AtAndQuantile) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.At(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.At(100.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 4.0);
}

TEST(EmpiricalCdf, UnsortedInputIsSorted) {
  EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.sorted().front(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.sorted().back(), 4.0);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  EmpiricalCdf cdf({5.0, 1.0, 9.0, 2.0, 7.0, 3.0});
  const auto curve = cdf.Curve(10);
  ASSERT_EQ(curve.size(), 10u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LT(curve[i - 1].second, curve[i].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(EmpiricalCdf, EmptyBehaviour) {
  EmpiricalCdf cdf(std::vector<double>{});
  EXPECT_EQ(cdf.size(), 0u);
  EXPECT_DOUBLE_EQ(cdf.At(1.0), 0.0);
  EXPECT_TRUE(cdf.Curve(5).empty());
  // Quantile on an empty sample is defined as 0.0, not an OOB read.
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 0.0);
}

TEST(EmpiricalCdf, AtIsNonDecreasing) {
  EmpiricalCdf cdf({1.0, 1.0, 2.0, 5.0, 5.0, 5.0, 8.0});
  double prev = 0.0;
  for (double x = 0.0; x <= 10.0; x += 0.25) {
    const double v = cdf.At(x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace faascost
