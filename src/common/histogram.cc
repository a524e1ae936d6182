#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace faascost {

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::At(double x) const {
  if (sorted_.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::Quantile(double q) const {
  if (sorted_.empty()) {
    return 0.0;
  }
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("EmpiricalCdf::Quantile: q must be in (0, 1], got " +
                                std::to_string(q));
  }
  const double rank = q * static_cast<double>(sorted_.size());
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
  idx = std::min(idx, sorted_.size() - 1);
  return sorted_[idx];
}

std::vector<std::pair<double, double>> EmpiricalCdf::Curve(size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || points == 0) {
    return out;
  }
  out.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(Quantile(q), q);
  }
  return out;
}

}  // namespace faascost
