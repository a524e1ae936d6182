#include "src/net/model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/validate.h"

namespace faascost {

namespace {

// Payload streams per request: request size, then response size. The
// per-attempt sub-stream mirrors the workflow engine's AttemptSeed shape so
// payloads are a pure function of identity, not of interleaving.
constexpr int kMaxAttemptsPerRequest = 64;

// Lognormal location for a target mean: mean = exp(mu + sigma^2/2).
double LnMuForMeanBytes(double mean_kb, double sigma) {
  if (mean_kb <= 0.0) {
    return 0.0;
  }
  return std::log(mean_kb * 1024.0) - 0.5 * sigma * sigma;
}

}  // namespace

std::vector<std::string> NetOutage::Validate() const {
  std::vector<std::string> errors;
  CheckAtLeast(&errors, "zone", zone, 0);
  CheckAtLeast(&errors, "start", start, 0);
  CheckAbove(&errors, "duration", duration, 0);
  if (start >= 0 && duration > std::numeric_limits<MicroSecs>::max() - start) {
    errors.push_back("start + duration must fit in int64 us, got " + std::to_string(start) +
                     " + " + std::to_string(duration));
  }
  return errors;
}

std::vector<std::string> NetworkModelConfig::Validate() const {
  std::vector<std::string> errors = topology.Validate();
  CheckAtLeast(&errors, "payload.request_mean_kb", payload.request_mean_kb, 0.0, "0 disables");
  CheckAtLeast(&errors, "payload.request_sigma", payload.request_sigma, 0.0);
  CheckAtLeast(&errors, "payload.response_mean_kb", payload.response_mean_kb, 0.0,
               "0 disables");
  CheckAtLeast(&errors, "payload.response_sigma", payload.response_sigma, 0.0);
  CheckAtLeast(&errors, "class_a_ops_per_request", class_a_ops_per_request, 0);
  CheckAtLeast(&errors, "class_b_ops_per_request", class_b_ops_per_request, 0);
  CheckAtLeast(&errors, "error_response_bytes", error_response_bytes, 0);
  for (size_t i = 0; i < outages.size(); ++i) {
    std::vector<std::string> window = outages[i].Validate();
    if (outages[i].zone >= topology.zones) {
      window.push_back("zone must name one of the topology's " +
                       std::to_string(topology.zones) + " zones, got " +
                       std::to_string(outages[i].zone));
    }
    AppendErrors(&errors, window, "outages[", i, "].");
  }
  return errors;
}

NetworkModel::NetworkModel(NetworkModelConfig config, NetworkPricing pricing,
                           uint64_t seed)
    : config_(std::move(config)),
      meter_(std::move(pricing)),
      payload_seed_(DeriveSeed(seed, kNetStream)) {
  std::vector<std::string> errors = config_.Validate();
  AppendErrors(&errors, meter_.pricing().Validate(), "pricing: ");
  ThrowIfInvalid("NetworkModel configuration", errors);
  // Built only once validated: regions() divides by zones_per_region.
  topo_ = MakeCloudTopology(config_.topology);
  req_ln_mu_ = LnMuForMeanBytes(config_.payload.request_mean_kb,
                                config_.payload.request_sigma);
  resp_ln_mu_ = LnMuForMeanBytes(config_.payload.response_mean_kb,
                                 config_.payload.response_sigma);
  for (const NetOutage& o : config_.outages) {
    boundaries_.push_back(o.start);
    boundaries_.push_back(o.start + o.duration);
  }
  std::sort(boundaries_.begin(), boundaries_.end());
  boundaries_.erase(std::unique(boundaries_.begin(), boundaries_.end()),
                    boundaries_.end());
}

AttemptPayload NetworkModel::PayloadFor(int64_t function_id, int64_t req_idx,
                                        int attempt, int64_t request_hint,
                                        int64_t response_hint, bool ok) const {
  AttemptPayload p;
  const bool draw_req = request_hint <= 0 && config_.payload.request_mean_kb > 0.0;
  const bool draw_resp = response_hint <= 0 && config_.payload.response_mean_kb > 0.0;
  if (draw_req || draw_resp) {
    const uint64_t fn_seed = DeriveSeed(payload_seed_, static_cast<uint64_t>(function_id));
    const uint64_t sub = static_cast<uint64_t>(req_idx) * kMaxAttemptsPerRequest +
                         static_cast<uint64_t>(attempt % kMaxAttemptsPerRequest);
    Rng rng(DeriveSeed(fn_seed, sub));
    // Fixed draw order: request, then response, whether or not each is used.
    const double req_draw = rng.LogNormal(req_ln_mu_, config_.payload.request_sigma);
    const double resp_draw = rng.LogNormal(resp_ln_mu_, config_.payload.response_sigma);
    if (draw_req) {
      p.request_bytes = static_cast<int64_t>(std::llround(CapPayloadBytes(req_draw)));
    }
    if (draw_resp) {
      p.response_bytes = static_cast<int64_t>(std::llround(CapPayloadBytes(resp_draw)));
    }
  }
  if (request_hint > 0) {
    p.request_bytes = request_hint;
  }
  if (response_hint > 0) {
    p.response_bytes = response_hint;
  }
  if (!ok) {
    p.response_bytes = config_.error_response_bytes;
  }
  return p;
}

int64_t NetworkModel::IntervalFor(MicroSecs t) const {
  // Interval i covers [boundaries_[i-1], boundaries_[i]); interval 0 is
  // everything before the first boundary.
  return std::upper_bound(boundaries_.begin(), boundaries_.end(), t) -
         boundaries_.begin();
}

bool NetworkModel::InOutage(int zone, MicroSecs t) const {
  for (const NetOutage& o : config_.outages) {
    if (o.Covers(zone, t)) {
      return true;
    }
  }
  return false;
}

int NetworkModel::NodeOf(int zone) const {
  return zone == kInternet ? zones() : zone;
}

PathInfo NetworkModel::IntraZonePath() const {
  PathInfo p;
  p.reachable = true;
  p.latency = config_.topology.intra_zone_latency;
  p.bytes_per_us = config_.topology.intra_zone_gbps * kBytesPerUsPerGbps;
  p.hops[static_cast<int>(TransferClass::kIntraZone)] = 1;
  return p;
}

const PathInfo& NetworkModel::PathFor(int src_node, int dst_node,
                                      int64_t interval) const {
  const auto key = std::make_pair(interval, std::make_pair(src_node, dst_node));
  const auto it = routes_.find(key);
  if (it != routes_.end()) {
    return it->second;
  }
  // Mask for this interval (a negative interval is the baseline sentinel:
  // no outage mask at all). Any probe time inside the interval gives the
  // same mask; the interval's left edge works because windows are half-open.
  std::vector<bool> down_link(static_cast<size_t>(topo_.link_count()), false);
  std::vector<bool> no_transit(static_cast<size_t>(topo_.node_count()), false);
  if (interval >= 0) {
    MicroSecs probe = 0;
    if (interval > 0) {
      probe = boundaries_[static_cast<size_t>(interval - 1)];
    }
    for (int z = 0; z < zones(); ++z) {
      if (!InOutage(z, probe)) {
        continue;
      }
      no_transit[static_cast<size_t>(z)] = true;
      for (const int li : topo_.LinksAt(z)) {
        const NetLink& l = topo_.link(li);
        // The zone's edge goes dark: uplinks and region peerings. The
        // cross-zone ring stays up so resident traffic can detour.
        if (l.cls_ab == TransferClass::kInternetEgress ||
            l.cls_ab == TransferClass::kInterRegion) {
          down_link[static_cast<size_t>(li)] = true;
        }
      }
    }
  }
  PathInfo path = topo_.Route(src_node, dst_node, down_link, no_transit);
  if (!path.reachable) {
    // No detour exists (e.g. a single-zone region fully dark): degrade to
    // the baseline route rather than wedging the simulation.
    path = topo_.Route(src_node, dst_node, {}, {});
  }
  return routes_.emplace(key, path).first->second;
}

MicroSecs NetworkModel::TransferTime(int src_zone, int dst_zone, int64_t bytes,
                                     MicroSecs t) const {
  if (bytes <= 0) {
    return 0;
  }
  if (src_zone == dst_zone) {
    return src_zone == kInternet ? 0 : IntraZonePath().TransferTime(bytes);
  }
  return PathFor(NodeOf(src_zone), NodeOf(dst_zone), IntervalFor(t)).TransferTime(bytes);
}

TransferCharge NetworkModel::Transfer(int src_zone, int dst_zone, int64_t bytes,
                                      MicroSecs t) {
  TransferCharge charge;
  if (bytes <= 0) {
    return charge;
  }
  charge.bytes = bytes;
  const PathInfo intra = IntraZonePath();
  const PathInfo* path = &intra;
  const PathInfo* baseline = &intra;
  if (src_zone != dst_zone) {
    const int src = NodeOf(src_zone);
    const int dst = NodeOf(dst_zone);
    path = &PathFor(src, dst, IntervalFor(t));
    baseline = &PathFor(src, dst, -1);  // Sentinel: the no-outage route.
  } else if (src_zone == kInternet) {
    return charge;  // Internet-to-internet moves nothing we bill.
  }
  charge.time = path->TransferTime(bytes);
  charge.rerouted = !path->SameRoute(*baseline);
  // Hypothetical baseline charge first, at the same cumulative position the
  // actual metering is about to consume — the detour surcharge is then the
  // honest marginal difference, clamped at zero (a reroute can also be
  // cheaper, e.g. when the masked route was the long way around).
  Usd hypothetical = 0.0;
  if (charge.rerouted) {
    for (int c = 0; c < kTransferClassCount; ++c) {
      if (baseline->hops[c] > 0) {
        hypothetical += meter_.CostIfAdded(static_cast<TransferClass>(c),
                                           baseline->hops[c] * bytes, t);
      }
    }
  }
  for (int c = 0; c < kTransferClassCount; ++c) {
    if (path->hops[c] > 0) {
      charge.usd +=
          meter_.AddTransfer(static_cast<TransferClass>(c), path->hops[c] * bytes, t);
    }
  }
  if (charge.rerouted) {
    charge.detour_usd = std::max(0.0, charge.usd - hypothetical);
  }
  meter_.NoteTransfer(charge.rerouted, charge.detour_usd);
  return charge;
}

Usd NetworkModel::MeterOps(int64_t class_a, int64_t class_b) {
  if (class_a <= 0 && class_b <= 0) {
    return 0.0;
  }
  return meter_.AddOps(class_a, class_b);
}

TransferCharge MeterPayload(NetworkModel& net, int src_zone, int dst_zone, int64_t bytes,
                            MicroSecs start, const Span& label, NetworkTotals* totals,
                            TraceSink* sink, TimeSeries* series) {
  if (bytes <= 0) {
    return {};
  }
  const TransferCharge c = net.Transfer(src_zone, dst_zone, bytes, start);
  ++totals->transfers;
  totals->bytes += c.bytes;
  totals->transfer_usd += c.usd;
  if (series != nullptr) {
    series->RecordTransfer(start + c.time, c.bytes, c.usd);
  }
  if (sink != nullptr) {
    Span sp = label;
    sp.kind = SpanKind::kTransfer;
    sp.start = start;
    sp.duration = c.time;
    sp.ref = c.bytes;
    sp.status = c.rerouted ? "rerouted" : "";
    sp.billed_usd = c.usd;
    sink->Record(sp);
  }
  return c;
}

MicroSecs MeterRoundTrip(NetworkModel& net, const RoundTrip& trip, NetworkTotals* totals,
                         TraceSink* sink, TimeSeries* series) {
  const TransferCharge in =
      MeterPayload(net, NetworkModel::kInternet, trip.zone, trip.payload.request_bytes,
                   trip.sent, trip.label, totals, sink, series);
  const TransferCharge back =
      MeterPayload(net, trip.zone, NetworkModel::kInternet, trip.payload.response_bytes,
                   trip.returned, trip.label, totals, sink, series);
  totals->ops_usd += net.MeterRequestOps();
  const MicroSecs delay = in.time + back.time;
  const Usd detour = in.detour_usd + back.detour_usd;
  totals->detour_usd += detour;
  if (series != nullptr) {
    // Disjoint waste attribution, first match wins.
    if (!trip.ok) {
      series->RecordWaste(trip.returned + delay, WasteKind::kFailedEgress, in.usd + back.usd);
    } else if (detour > 0.0) {
      series->RecordWaste(trip.returned + delay, WasteKind::kCrossZoneDetour, detour);
    }
  }
  return delay;
}

}  // namespace faascost
