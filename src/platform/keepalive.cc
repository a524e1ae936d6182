#include "src/platform/keepalive.h"

#include <algorithm>

#include "src/common/validate.h"

namespace faascost {

const char* KaResourceBehaviorName(KaResourceBehavior b) {
  switch (b) {
    case KaResourceBehavior::kFreezeDeallocate:
      return "deallocate CPU and memory (freeze/resume)";
    case KaResourceBehavior::kScaleDownCpu:
      return "scale down CPU (~0.01 vCPUs)";
    case KaResourceBehavior::kRunAsUsual:
      return "run as usual (full allocation)";
    case KaResourceBehavior::kCodeCache:
      return "code/bytecode cache";
  }
  return "unknown";
}

IdleHistogram::IdleHistogram(const std::optional<HistogramPrewarmConfig>& config)
    : config_(config) {
  if (config_.has_value()) {
    counts_.assign(static_cast<size_t>(config_->HistogramSize()), 0);
  }
}

void IdleHistogram::Observe(MicroSecs idle) {
  if (config_.has_value() && idle >= 0) {
    ++counts_[std::min(1 + static_cast<size_t>(idle / config_->bin_width), counts_.size() - 1)];
    ++counts_[0];
  }
}

MicroSecs IdleHistogram::LearnedWindow() const {
  if (!config_.has_value() || counts_[0] < config_->min_observations) {
    return 0;
  }
  const int64_t target =
      static_cast<int64_t>(config_->coverage_quantile * static_cast<double>(counts_[0]));
  int64_t seen = 0;
  for (size_t i = 1; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) {
      // Upper edge of the covering bin, scaled by the safety margin, capped
      // before the cast so that any finite margin casts safely.
      const double edge =
          static_cast<double>(i) * static_cast<double>(config_->bin_width) * config_->margin;
      return static_cast<MicroSecs>(std::min(edge, static_cast<double>(config_->max_keepalive)));
    }
  }
  return config_->max_keepalive;
}

MicroSecs KeepAlivePolicy::SampleDuration(Rng& rng, int active_instances,
                                          const IdleHistogram& history) const {
  const MicroSecs learned = prewarm_.has_value() ? history.LearnedWindow() : 0;
  if (learned > 0) {
    return learned;
  }
  const Window& w = scaled_out_.has_value() && active_instances >= 3 ? *scaled_out_ : window_;
  return w.drawn ? rng.UniformInt(w.min, w.max) : w.min;
}

double KeepAlivePolicy::KaCpuShare(double alloc_vcpus) const {
  if (behavior_ == KaResourceBehavior::kScaleDownCpu) {
    return alloc_vcpus > 0.0 ? 0.01 / alloc_vcpus : 0.0;
  }
  return behavior_ == KaResourceBehavior::kRunAsUsual ? 1.0 : 0.0;
}

// An absent window or pre-warm config mixes as its default after its flag.
void KeepAlivePolicy::MixInto(StateDigest& d) const {
  d.MixStr(name_);
  d.MixI64(static_cast<int64_t>(behavior_));
  d.MixBool(graceful_shutdown_);
  d.MixBool(scaled_out_.has_value());
  for (const Window& w : {window_, scaled_out_.value_or(Window{})}) {
    d.MixI64(w.min);
    d.MixI64(w.max);
    d.MixBool(w.drawn);
  }
  d.MixBool(prewarm_.has_value());
  const HistogramPrewarmConfig p = prewarm_.value_or(HistogramPrewarmConfig{});
  d.MixI64(p.bin_width);
  d.MixI64(p.max_tracked);
  d.MixI64(p.min_observations);
  d.MixDouble(p.coverage_quantile);
  d.MixDouble(p.margin);
  d.MixI64(p.max_keepalive);
  d.MixI64(p.fallback_min);
  d.MixI64(p.fallback_max);
}

std::vector<std::string> KeepAlivePolicy::Validate() const {
  std::vector<std::string> errors;
  const auto check_window = [&errors](const Window& w, std::string_view min_name,
                                      std::string_view max_name) {
    if (CheckWithin(&errors, min_name, w.min, 0, kMaxDuration, Ends::kClosed, "a century")) {
      CheckWithin(&errors, max_name, w.max, w.min, kMaxDuration, Ends::kClosed, min_name);
    }
  };
  if (prewarm_.has_value()) {
    check_window(window_, "prewarm.fallback_min", "prewarm.fallback_max");
  } else {
    check_window(window_, "window.min", "window.max");
  }
  if (scaled_out_.has_value()) {
    check_window(*scaled_out_, "scaled_out.min", "scaled_out.max");
  }
  if (!prewarm_.has_value()) {
    return errors;
  }
  const HistogramPrewarmConfig& p = *prewarm_;
  if (CheckAbove(&errors, "prewarm.bin_width", p.bin_width, 0) &&
      CheckWithin(&errors, "prewarm.max_tracked", p.max_tracked, 0, kMaxDuration,
                  Ends::kClosed, "a century")) {
    CheckWithin(&errors, "prewarm histogram size (max_tracked / bin_width + 2)",
                p.HistogramSize(), 2, kMaxIdleHistogramSize);
  }
  CheckAtLeast(&errors, "prewarm.min_observations", p.min_observations, 0);
  CheckWithin(&errors, "prewarm.coverage_quantile", p.coverage_quantile, 0.0, 1.0);
  CheckWithin(&errors, "prewarm.margin", p.margin, 0.0, kInf, Ends::kOpen);
  CheckWithin(&errors, "prewarm.max_keepalive", p.max_keepalive, 0, kMaxDuration,
              Ends::kClosed, "a century");
  return errors;
}

KeepAlivePolicy MakeAwsKeepAlive() {
  KeepAlivePolicy p("AWS Lambda (freeze, 300-360s)", KaResourceBehavior::kFreezeDeallocate,
                    {300LL * kMicrosPerSec, 360LL * kMicrosPerSec, /*drawn=*/true});
  p.graceful_shutdown_ = true;
  return p;
}

KeepAlivePolicy MakeGcpKeepAlive() {
  return {"GCP (scale-down CPU, ~900s)", KaResourceBehavior::kScaleDownCpu,
          {850LL * kMicrosPerSec, 900LL * kMicrosPerSec, /*drawn=*/true}};
}

KeepAlivePolicy MakeAzureKeepAlive() {
  KeepAlivePolicy p("Azure (opportunistic, 120-360s)", KaResourceBehavior::kRunAsUsual,
                    {120LL * kMicrosPerSec, 360LL * kMicrosPerSec, /*drawn=*/true});
  p.scaled_out_ = {360LL * kMicrosPerSec, 740LL * kMicrosPerSec, /*drawn=*/true};
  return p;
}

KeepAlivePolicy MakeCloudflareKeepAlive() {
  // The code cache persists far beyond the measurement horizon; the ~5 ms
  // re-JIT on a miss is masked by the TLS-handshake pre-warm.
  return {"Cloudflare (code cache)", KaResourceBehavior::kCodeCache,
          {86'400LL * kMicrosPerSec, 86'400LL * kMicrosPerSec, /*drawn=*/false}};
}

KeepAlivePolicy MakeFixedKeepAlive(MicroSecs duration, KaResourceBehavior behavior) {
  return {"fixed", behavior, {duration, duration, /*drawn=*/false}};
}

KeepAlivePolicy MakeHistogramPrewarm(HistogramPrewarmConfig config) {
  KeepAlivePolicy p("histogram pre-warm", KaResourceBehavior::kRunAsUsual,
                    {config.fallback_min, config.fallback_max, /*drawn=*/true});
  p.prewarm_ = config;
  return p;
}

}  // namespace faascost
