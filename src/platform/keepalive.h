// Keep-alive policies and KA-phase resource behaviour (paper §3.3, Fig. 9 and
// Table 2). Policies decide how long an idle sandbox survives before
// reclamation; the resource behaviour describes what the sandbox can do (and
// what the provider pays) while kept alive. A policy is a value: what
// histogram pre-warming learns lives in the engine's IdleHistogram.

#ifndef FAASCOST_PLATFORM_KEEPALIVE_H_
#define FAASCOST_PLATFORM_KEEPALIVE_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/integrity/archive.h"
#include "src/integrity/digest.h"

namespace faascost {

// Resource allocation during the KA phase (Table 2).
enum class KaResourceBehavior {
  kFreezeDeallocate,  // AWS: microVM frozen; CPU and memory deallocated.
  kScaleDownCpu,      // GCP: CPU throttled to ~0.01 vCPUs; memory retained.
  kRunAsUsual,        // Azure Consumption: full allocation retained.
  kCodeCache,         // Cloudflare: only code/bytecode cache retained.
};

const char* KaResourceBehaviorName(KaResourceBehavior b);

// Histogram-based predictive keep-alive (the mechanism the paper's §3.3
// attributes to Azure, after Shahrad et al.'s "Serverless in the Wild"):
// the platform builds an idle-time histogram per function and keeps the
// sandbox warm long enough to cover the observed inter-invocation gaps.
// Until `min_observations` intervals have been seen, it behaves like the
// opportunistic fallback window -- which is why the paper's short test
// period saw consistent cold starts despite regular traffic.
struct HistogramPrewarmConfig {
  MicroSecs bin_width = 30LL * kMicrosPerSec;
  MicroSecs max_tracked = 7'200LL * kMicrosPerSec;  // 2 h histogram span.
  int min_observations = 10;
  double coverage_quantile = 0.99;  // Keep warm to this idle percentile.
  double margin = 1.10;             // Safety factor on the learned window.
  MicroSecs max_keepalive = 3'600LL * kMicrosPerSec;
  // Fallback window before the histogram is trusted (Azure's opportunistic
  // 120-360 s).
  MicroSecs fallback_min = 120LL * kMicrosPerSec;
  MicroSecs fallback_max = 360LL * kMicrosPerSec;

  // Length of the IdleHistogram's counts: the observation count, one bin per
  // bin_width up to max_tracked, and the overflow bin.
  int64_t HistogramSize() const { return max_tracked / bin_width + 2; }
};

// Most counts an IdleHistogram may hold (800 KB). The default config needs
// 242; one-second bins over a day need 86,402.
inline constexpr int64_t kMaxIdleHistogramSize = 100'000;

// The idle gaps a run has observed (end of one invocation to the next
// arrival), binned for histogram pre-warming. The platform engine owns one
// per run; without a config it learns nothing.
class IdleHistogram {
 public:
  explicit IdleHistogram(const std::optional<HistogramPrewarmConfig>& config = std::nullopt);

  void Observe(MicroSecs idle);  // Negative intervals are ignored.
  int64_t observations() const { return counts_.empty() ? 0 : counts_[0]; }
  // The idle duration covered at the configured quantile, scaled by the
  // margin and capped at max_keepalive; 0 until trusted.
  MicroSecs LearnedWindow() const;

  // Walks the counts as the int64 array `key` (src/integrity/archive.h). A
  // loaded array of another length is a malformed checkpoint.
  template <typename Ar>
  void Archive(Ar& ar, std::string_view key) {
    const size_t want = counts_.size();
    ar.I64Vec(key, counts_);
    if (counts_.size() != want) {
      throw CheckpointError("checkpoint state: " + std::string(key) + " must hold " +
                            std::to_string(want) + " values under this keep-alive policy");
    }
  }

 private:
  std::optional<HistogramPrewarmConfig> config_;
  std::vector<int64_t> counts_;  // [observations, bin0, bin1, ...]; empty without a config.
};

// One keep-alive policy. Only the Make* functions below build one.
class KeepAlivePolicy {
 public:
  // Samples the keep-alive duration granted to a sandbox that just became
  // idle. `active_instances` lets opportunistic policies extend KA for
  // functions scaled to multiple instances (the paper observes ~740 s for an
  // Azure function scaled to 3 instances). A pre-warm policy returns
  // `history`'s learned window, drawing nothing, once it is trusted.
  MicroSecs SampleDuration(Rng& rng, int active_instances,
                           const IdleHistogram& history = IdleHistogram()) const;

  KaResourceBehavior resource_behavior() const { return behavior_; }
  // CPU share available to the (frozen/throttled) sandbox during KA, as a
  // fraction of `alloc_vcpus`. It follows the resource behaviour.
  double KaCpuShare(double alloc_vcpus) const;
  // Whether the platform delivers SIGTERM and waits for handling when the
  // sandbox leaves KA (Table 2: only AWS via Lambda Extensions).
  bool graceful_shutdown() const { return graceful_shutdown_; }
  const std::optional<HistogramPrewarmConfig>& prewarm() const { return prewarm_; }
  void MixInto(StateDigest& d) const;  // Every field, for the config hash.
  // Human-readable config errors; empty when valid. Every window holds
  // 0 <= min <= max <= kMaxDuration, and a pre-warm config has positive
  // bins, at most kMaxIdleHistogramSize counts and in-range learning knobs.
  std::vector<std::string> Validate() const;

 private:
  // Uniform over [min, max], drawn with one UniformInt, or exactly `min`
  // with no draw: UniformInt(lo, lo) still consumes a draw.
  struct Window {
    MicroSecs min = 0, max = 0;
    bool drawn = false;
  };

  KeepAlivePolicy(std::string name, KaResourceBehavior behavior, Window window)
      : name_(std::move(name)), behavior_(behavior), window_(window) {}

  friend KeepAlivePolicy MakeAwsKeepAlive();
  friend KeepAlivePolicy MakeGcpKeepAlive();
  friend KeepAlivePolicy MakeAzureKeepAlive();
  friend KeepAlivePolicy MakeCloudflareKeepAlive();
  friend KeepAlivePolicy MakeFixedKeepAlive(MicroSecs, KaResourceBehavior);
  friend KeepAlivePolicy MakeHistogramPrewarm(HistogramPrewarmConfig);

  std::string name_;
  KaResourceBehavior behavior_;
  Window window_;
  std::optional<Window> scaled_out_;  // Replaces window_ at 3+ instances.
  bool graceful_shutdown_ = false;
  std::optional<HistogramPrewarmConfig> prewarm_;
};

// AWS Lambda: freeze/resume with a fixed KA window of 300-360 s; graceful
// shutdown supported with Lambda Extensions.
KeepAlivePolicy MakeAwsKeepAlive();

// GCP: scale-down-delay style KA of ~900 s with CPU scaled to ~0.01 vCPUs;
// instances are killed without SIGTERM.
KeepAlivePolicy MakeGcpKeepAlive();

// Azure Consumption: opportunistic KA between 120 s and 360 s at one
// instance, extended (up to ~740 s) when scaled to 3+ instances; full
// resource allocation retained; killed right after SIGTERM.
KeepAlivePolicy MakeAzureKeepAlive();

// Cloudflare Workers: code/bytecode cache with TLS-handshake pre-warm; the
// ~5 ms load+JIT on a miss is masked, so cold starts are effectively
// invisible. Modeled as a very long KA with near-zero re-init cost.
KeepAlivePolicy MakeCloudflareKeepAlive();

// A fixed-duration policy for experiments and tests.
KeepAlivePolicy MakeFixedKeepAlive(MicroSecs duration, KaResourceBehavior behavior);

// Histogram pre-warming with Azure's resource behaviour: the fallback window
// until the engine's IdleHistogram is trusted, then the learned window.
KeepAlivePolicy MakeHistogramPrewarm(HistogramPrewarmConfig config = {});

}  // namespace faascost

#endif  // FAASCOST_PLATFORM_KEEPALIVE_H_
