#include "src/integrity/integrity.h"

namespace faascost {

namespace {

std::string BuildMessage(const std::string& invariant, MicroSecs sim_time,
                         uint64_t seed, const std::string& entity,
                         const std::string& detail) {
  std::string out = "integrity violation: " + invariant;
  out += " at t=" + std::to_string(sim_time) + "us";
  out += " seed=" + std::to_string(seed);
  if (!entity.empty()) {
    out += " entity=" + entity;
  }
  if (!detail.empty()) {
    out += ": " + detail;
  }
  return out;
}

}  // namespace

AuditLevel ParseAuditLevel(std::string_view text) {
  if (text == "off") {
    return AuditLevel::kOff;
  }
  if (text == "basic") {
    return AuditLevel::kBasic;
  }
  if (text == "full") {
    return AuditLevel::kFull;
  }
  throw std::invalid_argument("unknown audit level '" + std::string(text) +
                              "' (expected off|basic|full)");
}

const char* AuditLevelName(AuditLevel level) {
  switch (level) {
    case AuditLevel::kOff:
      return "off";
    case AuditLevel::kBasic:
      return "basic";
    case AuditLevel::kFull:
      return "full";
  }
  return "?";
}

IntegrityViolation::IntegrityViolation(std::string invariant, MicroSecs sim_time,
                                       uint64_t seed, std::string entity,
                                       std::string detail)
    : std::runtime_error(BuildMessage(invariant, sim_time, seed, entity, detail)),
      invariant_(std::move(invariant)),
      sim_time_(sim_time),
      seed_(seed),
      entity_(std::move(entity)),
      detail_(std::move(detail)) {}

Auditor::Auditor(AuditLevel level, int64_t scan_cadence_events)
    : level_(level), scan_cadence_(scan_cadence_events) {}

void Auditor::Fail(std::string_view invariant, MicroSecs sim_time, uint64_t seed,
                   std::string_view entity, std::string_view detail) {
  throw IntegrityViolation(std::string(invariant), sim_time, seed,
                           std::string(entity), std::string(detail));
}

}  // namespace faascost
