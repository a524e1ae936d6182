#include "src/cluster/host_faults.h"

#include <algorithm>
#include <limits>

#include "src/common/validate.h"

namespace faascost {

namespace {

// Sentinel for "this stream generates nothing further".
constexpr MicroSecs kNever = std::numeric_limits<MicroSecs>::max() / 2;

MicroSecs SecsToMicrosClamped(double seconds) {
  const double micros = seconds * static_cast<double>(kMicrosPerSec);
  if (micros >= static_cast<double>(kNever)) {
    return kNever;
  }
  return static_cast<MicroSecs>(micros);
}

}  // namespace

std::vector<std::string> HostFaultModelConfig::Validate() const {
  std::vector<std::string> errors;
  CheckAtLeast(&errors, "hosts", hosts, 0, "0 disables host faults");
  CheckAtLeast(&errors, "mtbf_seconds", mtbf_seconds, 0.0, "0 = hosts never crash");
  CheckAtLeast(&errors, "mttr_seconds", mttr_seconds, 0.0);
  CheckAtLeast(&errors, "zones", zones, 1, "hosts are striped across zones");
  CheckAtLeast(&errors, "zone_outage_mtbf_seconds", zone_outage_mtbf_seconds, 0.0,
               "0 = no outages");
  CheckWithin(&errors, "graceful_fraction", graceful_fraction, 0.0, 1.0);
  CheckWithin(&errors, "drain_deadline", drain_deadline, 0, kMaxDuration, Ends::kClosed,
              "0 = drains kill immediately, at most a century");
  if (enabled() && mtbf_seconds > 0.0 && mtbf_seconds <= mttr_seconds) {
    errors.push_back(
        "mtbf_seconds must exceed mttr_seconds (a host cannot spend more time "
        "failed than alive): mtbf=" +
        std::to_string(mtbf_seconds) + ", mttr=" + std::to_string(mttr_seconds));
  }
  return errors;
}

HostFaultModel::HostFaultModel(const HostFaultModelConfig& config, uint64_t seed)
    : config_(config), seed_(seed), zone_rng_(DeriveSeed(seed, kHostFaultStream)) {
  if (config_.enabled()) {
    hosts_.reserve(static_cast<size_t>(config_.hosts));
    for (int h = 0; h < config_.hosts; ++h) {
      hosts_.emplace_back(DeriveSeed(seed_, kHostStreamBase + static_cast<uint64_t>(h)));
    }
  }
}

void HostFaultModel::ExtendHostSchedule(int host, MicroSecs t) {
  HostStream& hs = hosts_[static_cast<size_t>(host)];
  if (config_.mtbf_seconds <= 0.0) {
    hs.generated_until = kNever;
    return;
  }
  const double rate_per_us =
      1.0 / (config_.mtbf_seconds * static_cast<double>(kMicrosPerSec));
  const MicroSecs mttr = SecsToMicrosClamped(config_.mttr_seconds);
  while (hs.generated_until <= t) {
    const MicroSecs gap = std::max<MicroSecs>(
        1, static_cast<MicroSecs>(CapDuration(hs.rng.Exponential(rate_per_us))));
    const MicroSecs when = hs.generated_until + gap;
    HostFailureEvent ev;
    ev.time = when;
    if (config_.graceful_fraction > 0.0) {
      ev.graceful = hs.rng.Bernoulli(config_.graceful_fraction);
    }
    hs.events.push_back(ev);
    // The host is in repair until `when + mttr`; its next crash clock starts
    // only once the replacement is up.
    hs.generated_until = when >= kNever - mttr ? kNever : when + mttr;
  }
}

void HostFaultModel::ExtendZoneSchedule(MicroSecs t) {
  if (config_.zone_outage_mtbf_seconds <= 0.0) {
    zones_generated_until_ = kNever;
    return;
  }
  const double rate_per_us =
      1.0 / (config_.zone_outage_mtbf_seconds * static_cast<double>(kMicrosPerSec));
  while (zones_generated_until_ <= t) {
    const MicroSecs gap = std::max<MicroSecs>(
        1, static_cast<MicroSecs>(CapDuration(zone_rng_.Exponential(rate_per_us))));
    const MicroSecs when = zones_generated_until_ + gap;
    ZoneOutage outage;
    outage.time = when;
    outage.zone = static_cast<int>(zone_rng_.UniformInt(0, config_.zones - 1));
    zone_outages_.push_back(outage);
    zones_generated_until_ = when;
  }
}

std::optional<HostFailureEvent> HostFaultModel::FirstFailureIn(int host, MicroSecs after,
                                                               MicroSecs upto) {
  if (!config_.enabled() || upto <= after) {
    return std::nullopt;
  }
  ExtendHostSchedule(host, upto);
  ExtendZoneSchedule(upto);
  std::optional<HostFailureEvent> best;
  const auto& own = hosts_[static_cast<size_t>(host)].events;
  const auto it = std::upper_bound(
      own.begin(), own.end(), after,
      [](MicroSecs t, const HostFailureEvent& e) { return t < e.time; });
  if (it != own.end() && it->time <= upto) {
    best = *it;
  }
  // Outages accumulate over the run: binary-search the first one after
  // `after`, then walk forward to the first in this host's zone.
  const int zone = host % config_.zones;
  for (auto outage = std::upper_bound(
           zone_outages_.begin(), zone_outages_.end(), after,
           [](MicroSecs t, const ZoneOutage& o) { return t < o.time; });
       outage != zone_outages_.end(); ++outage) {
    if (outage->time > upto || (best.has_value() && outage->time >= best->time)) {
      break;  // Sorted by time; nothing earlier can follow.
    }
    if (outage->zone == zone) {
      best = HostFailureEvent{outage->time, /*graceful=*/false};
      break;
    }
  }
  return best;
}

bool HostFaultModel::IsDown(int host, MicroSecs t) {
  if (!config_.enabled()) {
    return false;
  }
  ExtendHostSchedule(host, t);
  ExtendZoneSchedule(t);
  const MicroSecs mttr = SecsToMicrosClamped(config_.mttr_seconds);
  const auto& own = hosts_[static_cast<size_t>(host)].events;
  for (auto it = own.rbegin(); it != own.rend(); ++it) {
    if (it->time <= t) {
      if (t < it->time + mttr) {
        return true;
      }
      break;
    }
  }
  const int zone = host % config_.zones;
  for (auto it = zone_outages_.rbegin(); it != zone_outages_.rend(); ++it) {
    if (it->time <= t) {
      if (it->zone == zone && t < it->time + mttr) {
        return true;
      }
      if (it->time + mttr <= t) {
        break;  // Older outages cannot still be in repair either.
      }
    }
  }
  return false;
}

int HostFaultModel::PickHost(MicroSecs t) {
  if (!config_.enabled() || config_.hosts <= 0) {
    return 0;
  }
  for (int i = 0; i < config_.hosts; ++i) {
    const int h = (next_host_ + i) % config_.hosts;
    if (!IsDown(h, t)) {
      next_host_ = (h + 1) % config_.hosts;
      return h;
    }
  }
  // Every host is down: round-robin anyway (the sandbox dies at once, which
  // is the honest outcome of scheduling into a fully-failed fleet).
  const int h = next_host_;
  next_host_ = (next_host_ + 1) % config_.hosts;
  return h;
}

uint64_t HostFaultModel::TotalRngDraws() const {
  uint64_t draws = zone_rng_.draw_count();
  for (const HostStream& hs : hosts_) {
    draws += hs.rng.draw_count();
  }
  return draws;
}

}  // namespace faascost
