#include "src/obs/slo.h"

#include <stdexcept>

#include "src/common/json_writer.h"
#include "src/common/validate.h"

namespace faascost {

std::vector<std::string> SloSpec::Validate() const {
  std::vector<std::string> errors;
  if (name.empty()) {
    errors.push_back("name must be non-empty");
  }
  CheckAtLeast(&errors, "objective_id", objective_id, 0);
  CheckWithin(&errors, "target", target, 0.0, 1.0, Ends::kOpen);
  CheckAbove(&errors, "fast_windows", fast_windows, 0);
  CheckAbove(&errors, "slow_windows", slow_windows, 0);
  if (fast_windows > slow_windows) {
    errors.push_back("fast_windows must be <= slow_windows");
  }
  CheckAbove(&errors, "fast_burn", fast_burn, 0.0);
  CheckAbove(&errors, "slow_burn", slow_burn, 0.0);
  return errors;
}

double BurnRate(const TimeSeries& series, const SloSpec& spec, size_t last,
                int count) {
  int64_t completions = 0;
  int64_t good = 0;
  const size_t first =
      last + 1 >= static_cast<size_t>(count) ? last + 1 - static_cast<size_t>(count) : 0;
  for (size_t i = first; i <= last && i < series.window_count(); ++i) {
    const WindowStats& w = series.window_at(i);
    completions += w.completions;
    good += w.good[static_cast<size_t>(spec.objective_id)];
  }
  if (completions == 0) {
    return 0.0;
  }
  const double bad_fraction =
      static_cast<double>(completions - good) / static_cast<double>(completions);
  return bad_fraction / (1.0 - spec.target);
}

std::vector<SloAlert> EvaluateSlo(const TimeSeries& series, const SloSpec& spec) {
  ThrowIfInvalid("SloSpec", spec.Validate());
  if (static_cast<size_t>(spec.objective_id) >= series.objective_count()) {
    throw std::invalid_argument(
        "SloSpec.objective_id " + std::to_string(spec.objective_id) +
        " not registered on the series (have " +
        std::to_string(series.objective_count()) + ")");
  }

  std::vector<SloAlert> alerts;
  bool firing = false;
  for (size_t i = 0; i < series.window_count(); ++i) {
    const double fast = BurnRate(series, spec, i, spec.fast_windows);
    const double slow = BurnRate(series, spec, i, spec.slow_windows);
    const bool should_fire = fast >= spec.fast_burn && slow >= spec.slow_burn;
    if (should_fire == firing) {
      continue;
    }
    firing = should_fire;
    SloAlert alert;
    alert.slo = spec.name;
    alert.time = static_cast<MicroSecs>(i + 1) * series.window();
    alert.firing = firing;
    alert.fast_burn = fast;
    alert.slow_burn = slow;
    alert.window_billed_usd = series.window_at(i).billed_usd;
    alert.window_index = static_cast<int64_t>(i);
    alerts.push_back(alert);
  }
  return alerts;
}

std::string SloAlertsJsonl(const std::vector<SloAlert>& alerts) {
  std::string out;
  for (const SloAlert& alert : alerts) {
    JsonWriter w;
    w.BeginObject();
    w.KV("slo", alert.slo);
    w.KV("time_us", alert.time);
    w.KV("state", alert.firing ? "firing" : "resolved");
    w.KV("fast_burn", alert.fast_burn);
    w.KV("slow_burn", alert.slow_burn);
    w.KV("window", alert.window_index);
    w.KV("window_billed_usd", alert.window_billed_usd);
    w.EndObject();
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace faascost
