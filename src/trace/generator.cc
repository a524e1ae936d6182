#include "src/trace/generator.h"

#include <algorithm>
#include <cmath>

#include "src/common/validate.h"

namespace faascost {

namespace {

// Weight split between function-level and request-level utilization latents.
// Functions have characteristic utilization levels; requests jitter around
// them. The squares sum to one so the combined latent stays standard normal.
constexpr double kFunctionLatentWeight = 0.5;
const double kRequestLatentWeight = std::sqrt(1.0 - 0.5 * 0.5);

// A drawn duration in whole microseconds, at least 1. The draw is clamped to
// the duration ceiling before the cast, so no finite config overflows it.
MicroSecs DrawnMicros(double us) {
  return std::max<MicroSecs>(1, static_cast<MicroSecs>(CapDuration(us)));
}

TraceGenConfig Validated(TraceGenConfig config) {
  ThrowIfInvalid("TraceGenConfig", config.Validate());
  return config;
}

}  // namespace

std::vector<std::string> TraceGenConfig::Validate() const {
  std::vector<std::string> errors;
  CheckAtLeast(&errors, "num_requests", num_requests, 0);
  CheckAtLeast(&errors, "num_functions", num_functions, 1);
  CheckWithin(&errors, "zipf_exponent", zipf_exponent, 0.0, kInf, Ends::kOpenHigh);
  CheckAtLeast(&errors, "window", window, 1, "us");
  CheckWithin(&errors, "exec_ln_sigma_function", exec_ln_sigma_function, 0.0, kInf,
              Ends::kOpenHigh);
  CheckWithin(&errors, "exec_ln_sigma_request", exec_ln_sigma_request, 0.0, kInf,
              Ends::kOpenHigh);
  CheckWithin(&errors, "exec_mean_ms", exec_mean_ms, 0.0, kInf, Ends::kOpen);
  CheckWithin(&errors, "exec_alloc_exponent", exec_alloc_exponent, -kInf, kInf, Ends::kOpen);
  CheckAbove(&errors, "cpu_util.a", cpu_util.a, 0.0);
  CheckAbove(&errors, "cpu_util.b", cpu_util.b, 0.0);
  CheckAbove(&errors, "mem_util.a", mem_util.a, 0.0);
  CheckAbove(&errors, "mem_util.b", mem_util.b, 0.0);
  CheckWithin(&errors, "util_copula_rho", util_copula_rho, -1.0, 1.0);
  CheckWithin(&errors, "cold_start_fraction", cold_start_fraction, 0.0, 1.0);
  CheckWithin(&errors, "init_ln_mu", init_ln_mu, -kInf, kInf, Ends::kOpen);
  CheckWithin(&errors, "init_ln_sigma", init_ln_sigma, 0.0, kInf, Ends::kOpenHigh);
  double total_weight = 0.0;
  for (size_t i = 0; i < combos.size(); ++i) {
    std::vector<std::string> combo;
    CheckWithin(&combo, "vcpus", combos[i].vcpus, 0.0, kInf, Ends::kOpen);
    CheckWithin(&combo, "mem_mb", combos[i].mem_mb, 0.0, kInf, Ends::kOpen);
    CheckWithin(&combo, "weight", combos[i].weight, 0.0, kInf, Ends::kOpenHigh);
    AppendErrors(&errors, combo, "combos[", i, "].");
    total_weight += combos[i].weight;
  }
  CheckWithin(&errors, "total weight of combos", total_weight, 0.0, kInf, Ends::kOpen,
              "combos must be non-empty");
  CheckWithin(&errors, "lifecycle_ln_mu", lifecycle_ln_mu, -kInf, kInf, Ends::kOpen);
  CheckWithin(&errors, "lifecycle_ln_sigma", lifecycle_ln_sigma, 0.0, kInf, Ends::kOpenHigh);
  CheckWithin(&errors, "failure_rate_mean", failure_rate_mean, 0.0, 1.0, Ends::kClosed,
              "0 disables");
  CheckAbove(&errors, "failure_rate_alpha", failure_rate_alpha, 0.0);
  // A mean past the draw cap is legal: its draws clamp to kMaxPayloadBytes.
  CheckWithin(&errors, "payload_request_mean_kb", payload_request_mean_kb, 0.0, kInf,
              Ends::kOpenHigh, "0 disables");
  CheckWithin(&errors, "payload_request_ln_sigma", payload_request_ln_sigma, 0.0, kInf,
              Ends::kOpenHigh);
  CheckWithin(&errors, "payload_response_mean_kb", payload_response_mean_kb, 0.0, kInf,
              Ends::kOpenHigh, "0 disables");
  CheckWithin(&errors, "payload_response_ln_sigma", payload_response_ln_sigma, 0.0, kInf,
              Ends::kOpenHigh);
  return errors;
}

double StdNormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double KumaraswamyParams::Quantile(double u) const {
  u = std::clamp(u, 1e-12, 1.0 - 1e-12);
  return std::pow(1.0 - std::pow(1.0 - u, 1.0 / b), 1.0 / a);
}

double KumaraswamyParams::Cdf(double x) const {
  x = std::clamp(x, 0.0, 1.0);
  return 1.0 - std::pow(1.0 - std::pow(x, a), b);
}

TraceGenerator::TraceGenerator(TraceGenConfig config, uint64_t seed)
    : config_(Validated(std::move(config))),
      rng_(seed),
      payload_seed_(DeriveSeed(seed, kNetStream)),
      popularity_(config_.num_functions, config_.zipf_exponent) {
  // Global lognormal location from the target mean and the combined sigma.
  const double sigma_total_sq =
      config_.exec_ln_sigma_function * config_.exec_ln_sigma_function +
      config_.exec_ln_sigma_request * config_.exec_ln_sigma_request;
  const double mu_global =
      std::log(config_.exec_mean_ms * static_cast<double>(kMicrosPerMilli)) -
      sigma_total_sq / 2.0;

  double total_weight = 0.0;
  double mean_ln_vcpu = 0.0;
  for (const auto& combo : config_.combos) {
    total_weight += combo.weight;
    mean_ln_vcpu += combo.weight * std::log(combo.vcpus);
  }
  mean_ln_vcpu /= total_weight;

  functions_.reserve(static_cast<size_t>(config_.num_functions));
  for (int64_t id = 0; id < config_.num_functions; ++id) {
    FunctionProfile fn;
    fn.function_id = id;
    // Weighted combo choice.
    double pick = rng_.NextDouble() * total_weight;
    const AllocCombo* chosen = &config_.combos.back();
    for (const auto& combo : config_.combos) {
      if (pick < combo.weight) {
        chosen = &combo;
        break;
      }
      pick -= combo.weight;
    }
    fn.vcpus = chosen->vcpus;
    fn.mem_mb = chosen->mem_mb;
    const double alloc_shift =
        config_.exec_alloc_exponent * (std::log(fn.vcpus) - mean_ln_vcpu);
    fn.exec_ln_mu = rng_.Normal(mu_global + alloc_shift, config_.exec_ln_sigma_function);
    const auto [zc, zm] = rng_.CorrelatedNormals(config_.util_copula_rho);
    fn.cpu_latent_shift = kFunctionLatentWeight * zc;
    fn.mem_latent_shift = kFunctionLatentWeight * zm;
    if (config_.failure_rate_mean > 0.0) {
      // Beta(alpha, beta) with mean m: beta = alpha * (1 - m) / m.
      const double m = std::min(config_.failure_rate_mean, 0.999);
      const double alpha = config_.failure_rate_alpha;
      const double beta = alpha * (1.0 - m) / m;
      fn.failure_rate = std::clamp(rng_.Beta(alpha, beta), 0.0, 1.0);
    }
    functions_.push_back(fn);
  }
}

RequestRecord TraceGenerator::MakeRequest(const FunctionProfile& fn, MicroSecs arrival,
                                          Rng& rng) const {
  RequestRecord r;
  r.function_id = fn.function_id;
  r.arrival = arrival;
  r.alloc_vcpus = fn.vcpus;
  r.alloc_mem_mb = fn.mem_mb;

  const double exec_us = std::exp(rng.Normal(fn.exec_ln_mu, config_.exec_ln_sigma_request));
  r.exec_duration = DrawnMicros(exec_us);

  const auto [zc, zm] = rng.CorrelatedNormals(config_.util_copula_rho);
  const double latent_cpu = fn.cpu_latent_shift + kRequestLatentWeight * zc;
  const double latent_mem = fn.mem_latent_shift + kRequestLatentWeight * zm;
  const double cpu_util = config_.cpu_util.Quantile(StdNormalCdf(latent_cpu));
  const double mem_util = config_.mem_util.Quantile(StdNormalCdf(latent_mem));

  r.cpu_time = DrawnMicros(cpu_util * fn.vcpus * static_cast<double>(r.exec_duration));
  r.used_mem_mb = mem_util * fn.mem_mb;
  r.failure_rate = fn.failure_rate;

  if (rng.Bernoulli(config_.cold_start_fraction)) {
    r.cold_start = true;
    r.init_duration = DrawnMicros(rng.LogNormal(config_.init_ln_mu, config_.init_ln_sigma));
  }
  return r;
}

std::vector<RequestRecord> TraceGenerator::Generate() {
  std::vector<RequestRecord> out;
  out.reserve(static_cast<size_t>(config_.num_requests));
  Rng rng = rng_.Fork();
  // Payload draws live on their own stream (see TraceGenConfig): the main
  // stream's draw sequence — and with it every other field — is the same
  // whether payload synthesis is on or off.
  const bool want_req_payload = config_.payload_request_mean_kb > 0.0;
  const bool want_resp_payload = config_.payload_response_mean_kb > 0.0;
  Rng payload_rng(payload_seed_);
  const double req_mu =
      want_req_payload
          ? std::log(config_.payload_request_mean_kb * 1024.0) -
                config_.payload_request_ln_sigma * config_.payload_request_ln_sigma / 2.0
          : 0.0;
  const double resp_mu =
      want_resp_payload
          ? std::log(config_.payload_response_mean_kb * 1024.0) -
                config_.payload_response_ln_sigma * config_.payload_response_ln_sigma / 2.0
          : 0.0;
  for (int64_t i = 0; i < config_.num_requests; ++i) {
    const int64_t fid = popularity_.Sample(rng) - 1;
    const FunctionProfile& fn = functions_[static_cast<size_t>(fid)];
    const MicroSecs arrival = rng.UniformInt(0, config_.window - 1);
    out.push_back(MakeRequest(fn, arrival, rng));
    if (want_req_payload) {
      out.back().req_bytes = std::max<int64_t>(
          1, static_cast<int64_t>(CapPayloadBytes(
                 payload_rng.LogNormal(req_mu, config_.payload_request_ln_sigma))));
    }
    if (want_resp_payload) {
      out.back().resp_bytes = std::max<int64_t>(
          1, static_cast<int64_t>(CapPayloadBytes(
                 payload_rng.LogNormal(resp_mu, config_.payload_response_ln_sigma))));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) { return a.arrival < b.arrival; });
  return out;
}

std::vector<SandboxLifecycle> TraceGenerator::GenerateLifecycles(int64_t count) {
  std::vector<SandboxLifecycle> out;
  out.reserve(static_cast<size_t>(count));
  Rng rng = rng_.Fork();
  for (int64_t i = 0; i < count; ++i) {
    const int64_t fid = popularity_.Sample(rng) - 1;
    const FunctionProfile& fn = functions_[static_cast<size_t>(fid)];
    SandboxLifecycle lc;
    lc.function_id = fn.function_id;
    lc.alloc_vcpus = fn.vcpus;
    lc.alloc_mem_mb = fn.mem_mb;
    lc.init_duration = DrawnMicros(rng.LogNormal(config_.init_ln_mu, config_.init_ln_sigma));
    const double n_extra = rng.LogNormal(config_.lifecycle_ln_mu, config_.lifecycle_ln_sigma);
    constexpr auto kMaxExtra = static_cast<double>(kMaxLifecycleRequests - 1);
    const int64_t n = 1 + static_cast<int64_t>(n_extra < kMaxExtra ? n_extra : kMaxExtra);
    lc.request_durations.reserve(static_cast<size_t>(n));
    for (int64_t k = 0; k < n; ++k) {
      const double exec_us =
          std::exp(rng.Normal(fn.exec_ln_mu, config_.exec_ln_sigma_request));
      lc.request_durations.push_back(DrawnMicros(exec_us));
    }
    out.push_back(std::move(lc));
  }
  return out;
}

}  // namespace faascost
