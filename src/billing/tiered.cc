#include "src/billing/tiered.h"

#include <algorithm>

#include "src/common/validate.h"

namespace faascost {

const char* TransferClassName(TransferClass c) {
  switch (c) {
    case TransferClass::kIntraZone:
      return "intra_zone";
    case TransferClass::kInterZone:
      return "inter_zone";
    case TransferClass::kInterRegion:
      return "inter_region";
    case TransferClass::kInternetEgress:
      return "internet_egress";
    case TransferClass::kInternetIngress:
      return "internet_ingress";
  }
  return "unknown";
}

TieredSchedule TieredSchedule::Flat(Usd usd_per_gb) {
  TieredSchedule s;
  s.tiers.push_back({kNoTierLimit, usd_per_gb});
  return s;
}

TieredSchedule TieredSchedule::Free() { return Flat(0.0); }

std::vector<std::string> TieredSchedule::Validate() const {
  std::vector<std::string> errors;
  if (tiers.empty()) {
    errors.push_back("schedule has no tiers");
    return errors;
  }
  int64_t prev = 0;
  for (size_t i = 0; i < tiers.size(); ++i) {
    std::vector<std::string> tier;
    if (tiers[i].upto_bytes <= prev) {
      tier.push_back("bound does not ascend");
    }
    CheckAtLeast(&tier, "usd_per_gb", tiers[i].usd_per_gb, 0.0);
    AppendErrors(&errors, tier, "tier ", i, " ");
    prev = tiers[i].upto_bytes;
  }
  if (tiers.back().upto_bytes != kNoTierLimit) {
    errors.push_back("last tier must be unbounded (kNoTierLimit)");
  }
  return errors;
}

Usd TieredCost(const TieredSchedule& schedule, int64_t from_bytes, int64_t add_bytes) {
  int64_t pos = std::max<int64_t>(from_bytes, 0);
  int64_t remaining = std::max<int64_t>(add_bytes, 0);
  Usd usd = 0.0;
  for (const PriceTier& tier : schedule.tiers) {
    if (remaining <= 0) {
      break;
    }
    if (pos >= tier.upto_bytes) {
      continue;  // This tier is already fully consumed.
    }
    const int64_t seg = std::min(remaining, tier.upto_bytes - pos);
    // One grouping per segment, folded in ascending tier order — the
    // determinism contract the header promises. kBytesPerGb is a power of
    // two, so the division is exact whenever seg fits a double's mantissa.
    usd += tier.usd_per_gb * (static_cast<double>(seg) / static_cast<double>(kBytesPerGb));
    pos += seg;
    remaining -= seg;
  }
  return usd;
}

std::vector<std::string> NetworkPricing::Validate() const {
  std::vector<std::string> errors;
  for (int c = 0; c < kTransferClassCount; ++c) {
    AppendErrors(&errors, transfer[static_cast<size_t>(c)].Validate(),
                 TransferClassName(static_cast<TransferClass>(c)), ": ");
  }
  CheckAtLeast(&errors, "class_a_per_op", class_a_per_op, 0.0);
  CheckAtLeast(&errors, "class_b_per_op", class_b_per_op, 0.0);
  CheckAtLeast(&errors, "billing_period", billing_period, 0, "0 = never reset");
  return errors;
}

Usd NetworkBill::TransferUsd() const {
  Usd total = 0.0;
  for (int c = 0; c < kTransferClassCount; ++c) {
    total += usd[c];
  }
  return total;
}

Usd NetworkBill::TotalUsd() const { return TransferUsd() + ops_usd; }

TrafficMeter::TrafficMeter(NetworkPricing pricing) : pricing_(std::move(pricing)) {}

int64_t TrafficMeter::PeriodIndexFor(MicroSecs t) const {
  if (pricing_.billing_period <= 0) {
    return 0;
  }
  return t / pricing_.billing_period;
}

void TrafficMeter::RollPeriod(MicroSecs t) {
  // High-water mark: a completion timestamped slightly in the past (event
  // heaps resolve work out of arrival order) must not roll a period back.
  const int64_t idx = PeriodIndexFor(t);
  if (idx > period_idx_) {
    period_idx_ = idx;
    period_bytes_.fill(0);
  }
}

Usd TrafficMeter::AddTransfer(TransferClass c, int64_t bytes, MicroSecs t) {
  RollPeriod(t);
  const size_t ci = static_cast<size_t>(c);
  const int64_t add = std::max<int64_t>(bytes, 0);
  const Usd usd = TieredCost(pricing_.transfer[ci], period_bytes_[ci], add);
  period_bytes_[ci] += add;
  bill_.bytes[ci] += add;
  bill_.usd[ci] += usd;
  return usd;
}

Usd TrafficMeter::CostIfAdded(TransferClass c, int64_t bytes, MicroSecs t) const {
  const size_t ci = static_cast<size_t>(c);
  int64_t from = period_bytes_[ci];
  if (PeriodIndexFor(t) > period_idx_) {
    from = 0;  // The hypothetical transfer would land in a fresh period.
  }
  return TieredCost(pricing_.transfer[ci], from, std::max<int64_t>(bytes, 0));
}

Usd TrafficMeter::AddOps(int64_t class_a, int64_t class_b) {
  const int64_t a = std::max<int64_t>(class_a, 0);
  const int64_t b = std::max<int64_t>(class_b, 0);
  const Usd usd = pricing_.class_a_per_op * static_cast<double>(a) +
                  pricing_.class_b_per_op * static_cast<double>(b);
  bill_.class_a_ops += a;
  bill_.class_b_ops += b;
  bill_.ops_usd += usd;
  return usd;
}

void TrafficMeter::NoteTransfer(bool rerouted, Usd detour_usd) {
  ++bill_.transfers;
  if (rerouted) {
    ++bill_.rerouted_transfers;
  }
  if (detour_usd > 0.0) {
    bill_.detour_usd += detour_usd;
  }
}

}  // namespace faascost
