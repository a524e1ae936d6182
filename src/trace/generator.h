// Synthetic trace generator calibrated to the production statistics the paper
// reports from the Huawei serverless traces:
//
//   - mean wall-clock execution duration  ~ 58.19 ms   (paper §2.5)
//   - mean consumed CPU time              ~ 33.1 ms    (paper §4.2)
//   - >42% of requests use < 50% of the allotted CPU   (paper §2.3, Fig. 3)
//   - ~88% of requests use < 50% of the allotted memory(paper §2.3, Fig. 3)
//   - Pearson correlation of CPU and memory utilization ~ 0.397 (Fig. 3)
//   - 42.1% of cold starts consume at least as many billable resources during
//     initialization as all subsequent requests combined (Fig. 4)
//
// Durations are lognormal (heavy-tailed, as in every published FaaS workload
// characterization), function popularity is Zipfian, allocations come from a
// fixed set of vCPU-memory combos (Huawei FunctionGraph offers only fixed
// pairs, Table 1), and per-request CPU/memory utilizations are joined by a
// Gaussian copula over Kumaraswamy marginals (closed-form quantile function,
// so no special functions are required).

#ifndef FAASCOST_TRACE_GENERATOR_H_
#define FAASCOST_TRACE_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/trace/record.h"

namespace faascost {

// Kumaraswamy(a, b) marginal on [0, 1]; F(x) = 1 - (1 - x^a)^b.
struct KumaraswamyParams {
  double a = 1.0;
  double b = 1.0;

  double Quantile(double u) const;
  double Cdf(double x) const;
};

// A fixed vCPU-memory allocation combo with its popularity weight.
struct AllocCombo {
  double vcpus = 0.0;
  MegaBytes mem_mb = 0.0;
  double weight = 0.0;
};

struct TraceGenConfig {
  int64_t num_requests = 1'000'000;
  int64_t num_functions = 5'000;
  double zipf_exponent = 0.8;  // Function popularity skew.
  MicroSecs window = 86'400LL * kMicrosPerSec;  // One day, like the paper.

  // Wall-clock execution duration: lognormal in microseconds.
  // mean = exp(mu + sigma^2/2); defaults give ~58.19 ms.
  double exec_ln_sigma_function = 0.50;  // Across-function spread.
  double exec_ln_sigma_request = 1.30;   // Within-function spread.
  double exec_mean_ms = 58.19;
  // Larger allocations correlate with longer executions in production
  // workloads; applied as a log-duration shift proportional to
  // log(vCPUs) - mean(log vCPUs), so the overall mean stays calibrated.
  double exec_alloc_exponent = 0.35;

  // Utilization marginals.
  KumaraswamyParams cpu_util{1.20, 1.50};  // Mean ~0.45, F(0.5) ~ 0.58.
  KumaraswamyParams mem_util{1.00, 3.06};  // F(0.5) ~ 0.88.
  // Gaussian-copula correlation of the underlying normals. 0.44 yields a
  // Pearson correlation of ~0.397 on the transformed marginals.
  double util_copula_rho = 0.44;

  // Fraction of requests that are cold starts in the flat request stream.
  double cold_start_fraction = 0.005;
  // Initialization duration: lognormal, mean ~ 740 ms.
  double init_ln_mu = 13.20;     // ln(microseconds).
  double init_ln_sigma = 0.80;

  // Allocation combos; Huawei FunctionGraph exposes fixed pairs only, with
  // memory-per-vCPU close to AWS's 1769 MB ratio (which is why the paper's
  // AWS mapping inflates billable memory only slightly beyond Huawei's).
  std::vector<AllocCombo> combos = {
      {0.3, 512.0, 0.22}, {0.5, 1024.0, 0.26}, {1.0, 2048.0, 0.30},
      {2.0, 4096.0, 0.16}, {4.0, 8192.0, 0.06},
  };

  // Sandbox lifecycle model for the cold-start study: number of requests a
  // sandbox serves after its cold start is 1 + floor(LogNormal(mu, sigma)).
  double lifecycle_ln_mu = 2.80;
  double lifecycle_ln_sigma = 1.80;

  // Per-function failure rates: each function draws its per-attempt failure
  // probability from Beta(alpha, beta) with beta set so the mean equals
  // `failure_rate_mean` — most functions are healthy while a few fail often,
  // matching the skew of production error rates. 0 disables (the default; no
  // RNG draws happen, so existing traces are unchanged).
  double failure_rate_mean = 0.0;
  double failure_rate_alpha = 0.6;

  // Payload synthesis for the network model (src/net): lognormal body sizes
  // stamped on req_bytes/resp_bytes. A mean of 0 disables that side (the
  // default; no RNG draws happen, so existing traces are unchanged). Enabled
  // draws come from a dedicated kNetStream-derived Rng, never the main
  // generator stream, so every other field of the trace stays bit-identical
  // to a payload-less run of the same seed.
  double payload_request_mean_kb = 0.0;
  double payload_request_ln_sigma = 1.0;
  double payload_response_mean_kb = 0.0;
  double payload_response_ln_sigma = 1.0;

  // Human-readable config errors; empty when the generator can use it.
  std::vector<std::string> Validate() const;
};

// Cap on one generated lifecycle's request count (Fig. 4's largest: ~57k).
inline constexpr int64_t kMaxLifecycleRequests = 1'000'000;

// Static per-function characteristics drawn once.
struct FunctionProfile {
  int64_t function_id = 0;
  double vcpus = 0.0;
  MegaBytes mem_mb = 0.0;
  double exec_ln_mu = 0.0;  // Function-level lognormal location (microseconds).
  // Function-level latent shifts for the utilization copula.
  double cpu_latent_shift = 0.0;
  double mem_latent_shift = 0.0;
  double failure_rate = 0.0;  // Per-attempt failure probability.
};

class TraceGenerator {
 public:
  // Throws std::invalid_argument when config.Validate() reports errors.
  TraceGenerator(TraceGenConfig config, uint64_t seed);

  // Generates the flat request stream, sorted by arrival time.
  std::vector<RequestRecord> Generate();

  // Generates `count` sandbox lifecycles for the cold-start study (Fig. 4).
  std::vector<SandboxLifecycle> GenerateLifecycles(int64_t count);

  const std::vector<FunctionProfile>& functions() const { return functions_; }
  const TraceGenConfig& config() const { return config_; }

 private:
  RequestRecord MakeRequest(const FunctionProfile& fn, MicroSecs arrival, Rng& rng) const;

  TraceGenConfig config_;
  Rng rng_;
  uint64_t payload_seed_ = 0;  // DeriveSeed(seed, kNetStream); see config.
  std::vector<FunctionProfile> functions_;
  ZipfTable popularity_;
};

// Standard normal CDF (used to map copula normals to uniforms).
double StdNormalCdf(double z);

}  // namespace faascost

#endif  // FAASCOST_TRACE_GENERATOR_H_
