// Runtime invariant auditor.
//
// The auditor is a null-sink hook (same pattern as TraceSink / TimeSeries
// in src/obs): simulator configs carry an `Auditor*` that
// defaults to nullptr, and a detached run performs exactly one pointer test
// per potential check — no RNG draws, no allocation — so results stay
// bit-identical to pre-auditor goldens.
//
// When attached, the auditor evaluates conservation laws over live simulator
// state (billed-microsecond conservation, request conservation, capacity
// accounting, monotone event time, USD reconciliation; the full catalog is
// DESIGN.md §9). A failed check throws IntegrityViolation carrying the
// invariant name, sim time, seed, and offending entity, so a corrupted run
// dies loudly at the first inconsistent state instead of producing a
// plausible-looking wrong invoice.

#ifndef FAASCOST_INTEGRITY_INTEGRITY_H_
#define FAASCOST_INTEGRITY_INTEGRITY_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/common/units.h"

namespace faascost {

// How much checking an attached auditor performs.
//   kOff   — attached but inert (counts nothing; useful for plumbing tests).
//   kBasic — O(1) checks only: monotone time, counter conservation laws.
//   kFull  — kBasic plus O(state) scans (walk every sandbox/queue entry) at
//            the configured cadence and USD reconciliation at end of run.
enum class AuditLevel { kOff, kBasic, kFull };

// Parses "off" | "basic" | "full"; throws std::invalid_argument otherwise.
AuditLevel ParseAuditLevel(std::string_view text);
const char* AuditLevelName(AuditLevel level);

// Thrown when an invariant fails. The what() string is a single line
// suitable for CLI stderr; structured fields are kept for tests and
// programmatic handling.
class IntegrityViolation : public std::runtime_error {
 public:
  IntegrityViolation(std::string invariant, MicroSecs sim_time, uint64_t seed,
                     std::string entity, std::string detail);

  const std::string& invariant() const { return invariant_; }
  MicroSecs sim_time() const { return sim_time_; }
  uint64_t seed() const { return seed_; }
  const std::string& entity() const { return entity_; }
  const std::string& detail() const { return detail_; }

 private:
  std::string invariant_;
  MicroSecs sim_time_ = 0;
  uint64_t seed_ = 0;
  std::string entity_;
  std::string detail_;
};

class Auditor {
 public:
  // `scan_cadence_events`: run O(state) scans every N processed events
  // (kFull only). Cadence 0 disables periodic scans but keeps O(1) checks
  // and the end-of-run scan.
  explicit Auditor(AuditLevel level, int64_t scan_cadence_events = 8192);

  AuditLevel level() const { return level_; }

  bool basic() const { return level_ >= AuditLevel::kBasic; }
  bool full() const { return level_ >= AuditLevel::kFull; }

  // True when a periodic O(state) scan is due at this event count.
  bool ScanDue(int64_t events_processed) const {
    return full() && scan_cadence_ > 0 && events_processed % scan_cadence_ == 0;
  }

  // Records one invariant evaluation; throws IntegrityViolation when !ok.
  // The only check form, used by in-run and end-of-run audits alike.
  // `entity` and `detail` are nullary callables returning something
  // convertible to std::string_view, invoked only on failure: a passing
  // check costs one branch and a counter increment, with no string
  // formatting or allocation. That keeps per-event checks inside the <10%
  // audited-run overhead budget (see tools/ci.sh) and lets end-of-run audits
  // walk every attempt, request and sandbox at the cost of the comparisons.
  template <typename EntityFn, typename DetailFn>
  void CheckLazy(bool ok, std::string_view invariant, MicroSecs sim_time,
                 uint64_t seed, EntityFn&& entity, DetailFn&& detail) {
    ++checks_run_;
    if (!ok) [[unlikely]] {
      Fail(invariant, sim_time, seed, entity(), detail());
    }
  }

  // Observability for tests and the CLI summary line.
  int64_t checks_run() const { return checks_run_; }
  int64_t scans_run() const { return scans_run_; }
  void NoteScan() { ++scans_run_; }

 private:
  [[noreturn]] static void Fail(std::string_view invariant, MicroSecs sim_time,
                                uint64_t seed, std::string_view entity,
                                std::string_view detail);

  AuditLevel level_;
  int64_t scan_cadence_;
  int64_t checks_run_ = 0;
  int64_t scans_run_ = 0;
};

}  // namespace faascost

#endif  // FAASCOST_INTEGRITY_INTEGRITY_H_
