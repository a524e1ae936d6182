// Empirical CDFs for the analysis benches.

#ifndef FAASCOST_COMMON_HISTOGRAM_H_
#define FAASCOST_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace faascost {

// Empirical CDF built from a sample; supports evaluation and inverse.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  // P(X <= x).
  double At(double x) const;
  // Smallest sample value v with P(X <= v) >= q, q in (0, 1].
  // Returns 0.0 when the CDF was built from an empty sample; throws
  // std::invalid_argument when q is outside (0, 1].
  double Quantile(double q) const;

  size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted() const { return sorted_; }

  // Evaluation points for plotting: `points` evenly spaced quantiles as
  // (value, cumulative probability) pairs.
  std::vector<std::pair<double, double>> Curve(size_t points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace faascost

#endif  // FAASCOST_COMMON_HISTOGRAM_H_
