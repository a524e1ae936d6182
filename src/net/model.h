// NetworkModel: the single object a simulator attaches to route payloads.
//
// It bundles the zone/region topology (topology.h), the provider's transfer
// price sheet (billing/tiered.h), a deterministic payload-size model, and
// the zonal-outage windows, behind two kinds of calls:
//
//   - *Pure* time queries (TransferTime / path lookups): no state touched,
//     callable in any order. Simulators use these to shift event times.
//   - *Stateful* metering (Transfer / MeterOps): walks the monthly-
//     cumulative price ladder, so calls must happen in event-processing
//     order. Each call returns the marginal USD it charged; the sum of
//     those marginals is bill().TotalUsd() bit-for-bit, which is what lets
//     end-of-run decompositions reconcile bitwise against per-event
//     telemetry (obs/timeseries.h).
//
// Attachment contract (span.h / timeseries.h): simulators hold a raw
// `NetworkModel*` defaulting to null. Detached, every hook is one pointer
// test and runs stay bit-identical to pre-network goldens. Attached, the
// model draws payload sizes only from its own DeriveSeed stream
// (kNetStream), never from the simulator's existing streams. The model is
// caller-owned run state, like a TraceSink — it is not archived in
// checkpoints, so resuming a network-attached engine requires handing the
// resumed engine the same live model instance.
//
// Outage windows degrade a zone's network edge: its internet uplink and
// region peerings go down and it stops forwarding transit, while the
// cross-zone ring stays up so resident traffic detours via peers — paying
// cross-zone per-GB charges it normally would not (the egress-cost
// consequence) through a thinner backup uplink (the bandwidth consequence).
// If no detour exists the baseline route is used unchanged: outages degrade
// the network, they never wedge the simulation.

#ifndef FAASCOST_NET_MODEL_H_
#define FAASCOST_NET_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/billing/tiered.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/net/topology.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace faascost {

// A zonal outage window on the network edge, [start, start + duration).
// Mirrors the workflow engine's ZonalOutageSpec so one scenario can feed
// both the capacity consequence and the network consequence.
struct NetOutage {
  int zone = 0;
  MicroSecs start = 0;
  MicroSecs duration = 0;
};

// Deterministic per-attempt payload sizes. A mean of 0 disables that
// direction (the transfer still happens with the caller's explicit bytes).
// Sizes are lognormal in ln-space — payload distributions are heavy-tailed
// like every other FaaS workload dimension — drawn from an Rng seeded via
// DeriveSeed(kNetStream), a pure function of (function, request, attempt):
// interleaving-independent, and untouched by any simulator stream.
struct PayloadModelParams {
  double request_mean_kb = 0.0;
  double request_sigma = 1.0;
  double response_mean_kb = 0.0;
  double response_sigma = 1.0;
};

struct NetworkModelConfig {
  CloudTopologyParams topology;
  PayloadModelParams payload;
  // Storage operations the function performs per executed attempt (S3/GCS
  // class A = mutate, class B = read). Billed flat per op.
  int64_t class_a_ops_per_request = 0;
  int64_t class_b_ops_per_request = 0;
  // A failed attempt still answers the client — with an error body, not the
  // full response payload.
  int64_t error_response_bytes = 1024;
  std::vector<NetOutage> outages;

  std::vector<std::string> Validate() const;
};

// One metered transfer: how long it took and what it charged. `usd` is the
// marginal tier-walked charge; `detour_usd` is the (clamped-at-zero) part of
// it the baseline no-outage route would not have incurred.
struct TransferCharge {
  MicroSecs time = 0;
  Usd usd = 0.0;
  Usd detour_usd = 0.0;
  bool rerouted = false;
  int64_t bytes = 0;
};

struct AttemptPayload {
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
};

class NetworkModel {
 public:
  // Zone argument meaning "the public internet / the client".
  static constexpr int kInternet = -1;

  // Throws std::invalid_argument on invalid config or pricing.
  NetworkModel(NetworkModelConfig config, NetworkPricing pricing, uint64_t seed);

  const NetworkModelConfig& config() const { return config_; }
  int zones() const { return config_.topology.zones; }
  // Deterministic zone assignment for callers without a placement notion.
  int ZoneOf(int64_t key) const {
    const int z = static_cast<int>(key % static_cast<int64_t>(zones()));
    return z < 0 ? z + zones() : z;
  }

  // Payload sizes for one attempt. Explicit hints (trace record bytes > 0)
  // win; otherwise sizes are drawn from the attempt's derived stream. The
  // response hint/draw is replaced by error_response_bytes when !ok.
  AttemptPayload PayloadFor(int64_t function_id, int64_t req_idx, int attempt,
                            int64_t request_hint, int64_t response_hint, bool ok) const;

  // Pure transfer time between zones (kInternet = the client side) at sim
  // time t, under whatever outage windows cover t. No state is touched.
  MicroSecs TransferTime(int src_zone, int dst_zone, int64_t bytes, MicroSecs t) const;

  // Stateful: meters `bytes` over the route active at time t and returns
  // the marginal charge. Call in event-processing order.
  TransferCharge Transfer(int src_zone, int dst_zone, int64_t bytes, MicroSecs t);
  // Stateful: flat-priced storage operations; returns the marginal charge.
  Usd MeterOps(int64_t class_a, int64_t class_b);
  // The per-request operation bundle from the config.
  Usd MeterRequestOps() {
    return MeterOps(config_.class_a_ops_per_request, config_.class_b_ops_per_request);
  }

  bool InOutage(int zone, MicroSecs t) const;
  const NetworkBill& bill() const { return meter_.bill(); }
  const TrafficMeter& meter() const { return meter_; }
  const NetTopology& topology() const { return topo_; }

 private:
  // Outage timeline: index of the constant-mask interval containing t.
  int64_t IntervalFor(MicroSecs t) const;
  // Route under the mask of interval `interval`, cached. Node arguments.
  const PathInfo& PathFor(int src_node, int dst_node, int64_t interval) const;
  int NodeOf(int zone) const;  // kInternet -> internet node.
  PathInfo IntraZonePath() const;

  NetworkModelConfig config_;
  TrafficMeter meter_;
  uint64_t payload_seed_ = 0;
  double req_ln_mu_ = 0.0;
  double resp_ln_mu_ = 0.0;
  NetTopology topo_;
  std::vector<MicroSecs> boundaries_;  // Sorted outage start/end times.
  // (interval, src, dst) -> path. Mutable: a deterministic cache over pure
  // routing results, safe to fill from const time queries.
  mutable std::map<std::pair<int64_t, std::pair<int, int>>, PathInfo> routes_;
};

// Running totals of metered traffic, folded in metering order — the order
// the kTransfer spans and RecordTransfer calls see, so per-window
// reconciliation (ReconcileTransferUsd) is bitwise.
struct NetworkTotals {
  int64_t transfers = 0;
  int64_t bytes = 0;
  Usd transfer_usd = 0.0;  // Emission-order fold of the marginal charges.
  Usd ops_usd = 0.0;       // Storage class-A/class-B operation fees.
  Usd detour_usd = 0.0;    // Outage-reroute surcharge subset of transfer_usd.
};

// One executed attempt's trip over the network edge.
struct RoundTrip {
  int zone = 0;  // Zone of the sandbox that ran the attempt.
  AttemptPayload payload;
  MicroSecs sent = 0;      // The request leaves the client: dispatch.
  MicroSecs returned = 0;  // The response leaves the sandbox: the attempt's end.
  bool ok = true;          // A failed attempt's transfer spend is waste.
  // Attribution of both kTransfer spans: group, track, req_idx and attempt.
  Span label;
};

// Meters one executed attempt's round trip through `net`: the request
// payload internet -> zone at `sent`, the response (or error body) back at
// `returned`, then the per-request storage-op bundle. A zero-byte direction
// moves nothing. Each transfer folds into `totals` and, when attached, ends
// in a kTransfer span in `sink` and a RecordTransfer in `series`. The series
// also takes the waste at the client's end: a failed attempt's whole
// transfer spend (kFailedEgress), a successful one's reroute surcharge
// (kCrossZoneDetour). Returns both transfer times: the delay the trip adds
// to the client path, never to sandbox occupancy.
MicroSecs MeterRoundTrip(NetworkModel& net, const RoundTrip& trip, NetworkTotals* totals,
                         TraceSink* sink, TimeSeries* series);

}  // namespace faascost

#endif  // FAASCOST_NET_MODEL_H_
