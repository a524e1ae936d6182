#include "src/net/topology.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/common/validate.h"

namespace faascost {

MicroSecs PathInfo::TransferTime(int64_t bytes) const {
  if (!reachable || bytes <= 0) {
    return reachable ? latency : 0;
  }
  if (bytes_per_us <= 0.0) {
    return latency;
  }
  const double serialization = static_cast<double>(bytes) / bytes_per_us;
  return latency + static_cast<MicroSecs>(std::ceil(serialization));
}

bool PathInfo::SameRoute(const PathInfo& other) const {
  if (reachable != other.reachable || latency != other.latency) {
    return false;
  }
  for (int c = 0; c < kTransferClassCount; ++c) {
    if (hops[c] != other.hops[c]) {
      return false;
    }
  }
  return true;
}

int NetTopology::AddLink(int a, int b, MicroSecs latency, double gbps,
                         TransferClass cls_ab, TransferClass cls_ba) {
  if (a < 0 || a >= node_count() || b < 0 || b >= node_count() || a == b) {
    throw std::invalid_argument("NetTopology::AddLink: invalid endpoints");
  }
  NetLink l;
  l.a = a;
  l.b = b;
  l.latency = latency;
  l.gbps = gbps;
  l.cls_ab = cls_ab;
  l.cls_ba = cls_ba;
  links_.push_back(l);
  const int idx = static_cast<int>(links_.size()) - 1;
  adjacency_[static_cast<size_t>(a)].push_back(idx);
  adjacency_[static_cast<size_t>(b)].push_back(idx);
  return idx;
}

PathInfo NetTopology::Route(int src, int dst, const std::vector<bool>& down_link,
                            const std::vector<bool>& no_transit) const {
  PathInfo out;
  const int n = node_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    return out;
  }
  const auto link_down = [&](int l) {
    return static_cast<size_t>(l) < down_link.size() && down_link[static_cast<size_t>(l)];
  };
  const auto transit_blocked = [&](int node) {
    return static_cast<size_t>(node) < no_transit.size() &&
           no_transit[static_cast<size_t>(node)];
  };

  constexpr MicroSecs kUnreached = std::numeric_limits<MicroSecs>::max();
  std::vector<MicroSecs> dist(static_cast<size_t>(n), kUnreached);
  std::vector<int> via_link(static_cast<size_t>(n), -1);
  std::vector<int> via_node(static_cast<size_t>(n), -1);
  // (distance, node): the node id breaks latency ties, so equal-cost routes
  // resolve identically on every run.
  using Entry = std::pair<MicroSecs, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  dist[static_cast<size_t>(src)] = 0;
  heap.push({0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[static_cast<size_t>(u)]) {
      continue;  // Stale entry.
    }
    if (u == dst) {
      break;
    }
    if (u != src && transit_blocked(u)) {
      continue;  // May terminate traffic, may not forward it.
    }
    for (const int li : adjacency_[static_cast<size_t>(u)]) {
      if (link_down(li)) {
        continue;
      }
      const NetLink& l = links_[static_cast<size_t>(li)];
      const int v = l.a == u ? l.b : l.a;
      const MicroSecs nd = d + l.latency;
      if (nd < dist[static_cast<size_t>(v)]) {
        dist[static_cast<size_t>(v)] = nd;
        via_link[static_cast<size_t>(v)] = li;
        via_node[static_cast<size_t>(v)] = u;
        heap.push({nd, v});
      }
    }
  }
  if (dist[static_cast<size_t>(dst)] == kUnreached) {
    return out;
  }
  out.reachable = true;
  out.latency = dist[static_cast<size_t>(dst)];
  out.bytes_per_us = std::numeric_limits<double>::max();
  for (int v = dst; v != src; v = via_node[static_cast<size_t>(v)]) {
    const NetLink& l = links_[static_cast<size_t>(via_link[static_cast<size_t>(v)])];
    const int u = via_node[static_cast<size_t>(v)];
    const TransferClass cls = l.a == u ? l.cls_ab : l.cls_ba;
    ++out.hops[static_cast<int>(cls)];
    out.bytes_per_us = std::min(out.bytes_per_us, l.gbps * kBytesPerUsPerGbps);
  }
  return out;
}

std::vector<std::string> CloudTopologyParams::Validate() const {
  std::vector<std::string> errors;
  CheckAtLeast(&errors, "zones", zones, 1);
  CheckAtLeast(&errors, "zones_per_region", zones_per_region, 1);
  CheckAtLeast(&errors, "intra_zone_latency", intra_zone_latency, 0);
  CheckAtLeast(&errors, "inter_zone_latency", inter_zone_latency, 0);
  CheckAtLeast(&errors, "inter_region_latency", inter_region_latency, 0);
  CheckAtLeast(&errors, "internet_latency", internet_latency, 0);
  CheckAbove(&errors, "intra_zone_gbps", intra_zone_gbps, 0.0);
  CheckAbove(&errors, "inter_zone_gbps", inter_zone_gbps, 0.0);
  CheckAbove(&errors, "inter_region_gbps", inter_region_gbps, 0.0);
  CheckAbove(&errors, "uplink_gbps", uplink_gbps, 0.0);
  CheckAbove(&errors, "backup_uplink_gbps", backup_uplink_gbps, 0.0);
  return errors;
}

NetTopology MakeCloudTopology(const CloudTopologyParams& params) {
  NetTopology topo;
  for (int z = 0; z < params.zones; ++z) {
    topo.AddNode();
  }
  const int internet = topo.AddNode();

  for (int r = 0; r < params.regions(); ++r) {
    const int lo = r * params.zones_per_region;
    const int hi = std::min(lo + params.zones_per_region, params.zones);
    const int count = hi - lo;
    // Cross-zone ring (a single pair gets one link, a lone zone none).
    if (count == 2) {
      topo.AddLink(lo, lo + 1, params.inter_zone_latency, params.inter_zone_gbps,
                   TransferClass::kInterZone, TransferClass::kInterZone);
    } else if (count > 2) {
      for (int z = lo; z < hi; ++z) {
        const int next = z + 1 == hi ? lo : z + 1;
        topo.AddLink(z, next, params.inter_zone_latency, params.inter_zone_gbps,
                     TransferClass::kInterZone, TransferClass::kInterZone);
      }
    }
    // Primary uplink in the region's first zone; thinner, slower backup in
    // its second. The two-ring-hop latency handicap makes the primary
    // *strictly* preferred from every zone while it is up: reaching the
    // backup zone costs at most one ring hop more than reaching the primary,
    // so the healthy route never ties with (or loses to) the backup.
    topo.AddLink(lo, internet, params.internet_latency, params.uplink_gbps,
                 TransferClass::kInternetEgress, TransferClass::kInternetIngress);
    if (count >= 2) {
      topo.AddLink(lo + 1, internet,
                   params.internet_latency + 2 * params.inter_zone_latency,
                   params.backup_uplink_gbps, TransferClass::kInternetEgress,
                   TransferClass::kInternetIngress);
    }
  }
  // Region peering: primary zones, full mesh (region counts are small).
  for (int r1 = 0; r1 < params.regions(); ++r1) {
    for (int r2 = r1 + 1; r2 < params.regions(); ++r2) {
      topo.AddLink(r1 * params.zones_per_region, r2 * params.zones_per_region,
                   params.inter_region_latency, params.inter_region_gbps,
                   TransferClass::kInterRegion, TransferClass::kInterRegion);
    }
  }
  return topo;
}

}  // namespace faascost
