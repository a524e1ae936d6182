// Sim-time windowed telemetry: tumbling-window aggregation of the signals the
// paper says must be seen *over time* to turn a bill into a diagnosis —
// request rate, cold-start rate, latency quantiles, billed-USD rate, waste
// USD by category, queue depth, and live concurrency.
//
// Attachment follows the repo's null-sink contract (span.h): simulators hold
// a raw `TimeSeries*` defaulting to null, every hook is one pointer test when
// detached, recording draws no randomness, and detached runs stay
// bit-identical to pre-telemetry goldens.
//
// Windows are tumbling in sim time: an event at time t lands in window
// t / width (integer floor division), so an event exactly on a window edge
// deterministically opens the *next* window — the boundary rule is a pure
// function of (t, width), never of processing order or seed. Windows are
// stored densely by index and grown on demand, because completion times are
// not monotone in processing order (a long execution finishes after later
// arrivals were already processed).
//
// Bit-for-bit USD reconciliation: simulators call RecordBilled at the exact
// code point where the attempt's terminal span is given its invoice, with the
// same timestamp (the span's end) and the same value (the invoice total), in
// the same order. Per-window sums then accumulate in emission order on both
// sides, so ReconcileBilledUsd can compare window sums *bitwise* — the
// honest version of "the time series reproduces revenue", with no epsilon to
// hide a dropped or double-counted attempt behind.

#ifndef FAASCOST_OBS_TIMESERIES_H_
#define FAASCOST_OBS_TIMESERIES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/units.h"
#include "src/obs/span.h"

namespace faascost {

// Billed-but-not-useful USD, by root cause. Fleet/platform runs populate
// kFailedAttempt and kColdInit; the workflow engine adds the resilience-
// policy categories it prices (DESIGN.md §10). Categories are disjoint per
// attempt: hedge loser > straggler > failed, first match wins.
enum class WasteKind {
  kFailedAttempt = 0,  // Full invoice of a failed (non-ok) attempt.
  kColdInit,           // Cold-start surcharge share of a successful attempt.
  kHedgeLoser,         // Speculative duplicate that lost the hedge race.
  kStraggler,          // Quorum-join loser billed past the join.
  kDeadLetter,         // Final attempt of a dead-lettered async hop.
  kFailedEgress,       // Transfer USD spent moving a failed attempt's bytes.
  kCrossZoneDetour,    // Outage-rerouting surcharge over the baseline route.
};
inline constexpr int kWasteKindCount = 7;
const char* WasteKindName(WasteKind kind);

// Every category, in enum order. Keep in sync with the enum above — the
// round-trip test (tests/obs/wastekind_roundtrip_test.cc) walks this array
// and fails if a category is missing a name or a name maps back wrong.
inline constexpr WasteKind kAllWasteKinds[] = {
    WasteKind::kFailedAttempt, WasteKind::kColdInit,
    WasteKind::kHedgeLoser,    WasteKind::kStraggler,
    WasteKind::kDeadLetter,    WasteKind::kFailedEgress,
    WasteKind::kCrossZoneDetour,
};

// Inverse of WasteKindName; nullopt for unrecognized names.
std::optional<WasteKind> WasteKindFromName(std::string_view name);

// Fixed-memory streaming histogram with HDR-style integer bucketing: values
// are floored to int64 and bucketed by (octave, sub-bucket) using bit
// operations only — no libm, so quantiles are bit-deterministic across
// platforms. Resolution is kSubBucketBits significant bits (~1.6% relative
// error), exact below 2^kSubBucketBits.
//
// Degenerate-input contract (tested in tests/obs/timeseries_test.cc):
//   - empty histogram: Quantile() == 0.0 for every q;
//   - single sample, or all samples equal: Quantile() is that exact value;
//   - NaN, +/-inf, and negative values are rejected, never stored, and
//     counted in rejected().
class StreamingHistogram {
 public:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave.
  // Windows with up to this many samples keep them raw (quantiles are then
  // exact); the first sample past it migrates everything into buckets. A
  // day-scale fleet run at 60s windows averages ~35 samples per window, so
  // the common window never allocates a bucket array at all — that
  // allocation is what used to dominate the telemetry overhead budget.
  static constexpr int kInlineSamples = 64;

  void Observe(double value);

  int64_t count() const { return count_; }
  int64_t rejected() const { return rejected_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }
  double Mean() const;

  // Lowest recorded value v such that at least ceil(q * count) samples are
  // <= v's bucket, reported as the bucket midpoint clamped into [min, max].
  // q is clamped into [0, 1].
  double Quantile(double q) const;

 private:
  static int BucketIndex(int64_t v);
  static int64_t BucketLow(int index);
  static int64_t BucketHigh(int index);

  // Adds one count at an absolute bucket index, growing/re-anchoring the
  // offset storage as needed.
  void BumpBucket(int index, int64_t n);
  // Migrates raw_ into buckets_ (called on the first sample past
  // kInlineSamples, and before merging bucketed histograms).
  void SpillRaw();

  // Raw samples while small (exact quantiles, no bucket allocation).
  std::vector<double> raw_;
  // Offset storage: buckets_[i] counts BucketIndex base_ + i, covering only
  // the occupied index range. A window of millisecond-scale latencies spans
  // ~2 octaves (~128 buckets) but their absolute indices sit near 900, so
  // anchoring at the first observed index instead of zero keeps per-window
  // memory and allocation proportional to the spread, not the magnitude.
  std::vector<int64_t> buckets_;
  int base_ = 0;  // Absolute bucket index of buckets_[0]; meaningless when empty.
  int64_t count_ = 0;
  int64_t rejected_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// One tumbling window's aggregates. Default-constructed = untouched window
// (all zero), so dense storage over a sparse run is well-defined.
struct WindowStats {
  int64_t arrivals = 0;     // Attempt arrivals (retries re-arrive).
  int64_t dispatches = 0;   // Attempts that reached a sandbox.
  int64_t cold_starts = 0;
  int64_t completions = 0;  // Terminal request resolutions, ok or not.
  int64_t failures = 0;     // Terminal resolutions that failed.
  int64_t retries = 0;
  double billed_usd = 0.0;  // Accumulated in emission order (see header).
  int64_t queue_depth_max = 0;
  int64_t busy_micros = 0;  // Execution-time overlap with this window.
  StreamingHistogram latency_us;      // Terminal e2e latency, microseconds.
  std::vector<int64_t> good;          // Per latency objective: ok && within.
  // Colder columns (touched on waste events and network transfers only)
  // sit behind the per-event fields so the hot path's cache-line footprint
  // stays what it was before the network columns were added.
  double waste_usd[kWasteKindCount] = {};
  int64_t net_bytes = 0;    // Payload bytes entering the network this window.
  double net_usd = 0.0;     // Transfer USD, accumulated in emission order.

  double WasteTotal() const;
};

class TimeSeries {
 public:
  // Throws std::invalid_argument unless window > 0.
  explicit TimeSeries(MicroSecs window);

  MicroSecs window() const { return window_; }
  int64_t WindowIndexFor(MicroSecs t) const { return t / window_; }

  // Registers a latency objective (for SLO good-event counting) and returns
  // its index into WindowStats::good. Must be called before any
  // RecordCompletion; throws std::logic_error afterwards.
  int AddLatencyObjective(MicroSecs objective);
  size_t objective_count() const { return objectives_.size(); }
  MicroSecs objective_at(size_t i) const { return objectives_[i]; }

  // --- Recording hooks (all sim-time-stamped; out-of-order tolerated) ---
  // The small ones are defined inline: simulators call them once or more per
  // event, so the per-call budget is a few ns — a cached-window hit plus one
  // counter update, no out-of-line call.
  void RecordArrival(MicroSecs t) { ++WindowFor(t).arrivals; }
  // Arrival-side hook: the arrival count and the queue-depth high-water
  // mark share one window lookup (they always fire together in the
  // simulator hot loops).
  void RecordArrivalQueued(MicroSecs t, int64_t depth) {
    WindowStats& w = WindowFor(t);
    ++w.arrivals;
    w.queue_depth_max = std::max(w.queue_depth_max, depth);
  }
  void RecordDispatch(MicroSecs t, bool cold) {
    WindowStats& w = WindowFor(t);
    ++w.dispatches;
    if (cold) {
      ++w.cold_starts;
    }
  }
  // Terminal resolution of a request: success flag and end-to-end latency.
  // Also feeds the per-objective good counters registered above.
  void RecordCompletion(MicroSecs t, bool ok, MicroSecs latency);
  void RecordRetry(MicroSecs t) { ++WindowFor(t).retries; }
  // Billed USD at the attempt's terminal-span end time. Call exactly where
  // the terminal span is priced, in the same order — reconciliation is
  // bitwise (see file header).
  void RecordBilled(MicroSecs t, Usd usd) { WindowFor(t).billed_usd += usd; }
  // Dispatch-side hook for one executed attempt: the dispatch/cold-start
  // counts land in the dispatch window and the billed USD in the end
  // window, two lookups instead of three. The billed add runs exactly where
  // a RecordDispatch + RecordBilled pair would, so the emission-order
  // bitwise contract above is unchanged.
  void RecordDispatchBilled(MicroSecs dispatch_t, MicroSecs end, bool cold,
                            Usd billed) {
    WindowStats& d = WindowFor(dispatch_t);
    ++d.dispatches;
    if (cold) {
      ++d.cold_starts;
    }
    WindowFor(end).billed_usd += billed;
  }
  void RecordWaste(MicroSecs t, WasteKind kind, Usd usd) {
    WindowFor(t).waste_usd[static_cast<int>(kind)] += usd;
  }
  // Network transfer USD at the transfer span's end time. Same bitwise
  // contract as RecordBilled: call where the transfer is priced, in the
  // same order, so ReconcileTransferUsd can compare without an epsilon.
  void RecordTransfer(MicroSecs t, int64_t bytes, Usd usd) {
    WindowStats& w = WindowFor(t);
    w.net_bytes += bytes;
    w.net_usd += usd;
  }
  void RecordQueueDepth(MicroSecs t, int64_t depth) {
    WindowStats& w = WindowFor(t);
    w.queue_depth_max = std::max(w.queue_depth_max, depth);
  }
  // Attributes [start, end) busy time to every window it overlaps; average
  // live concurrency per window is busy_micros / window width.
  void RecordExecution(MicroSecs start, MicroSecs end);

  // --- Finalized view ---
  size_t window_count() const { return windows_.size(); }
  const WindowStats& window_at(size_t i) const { return windows_[i]; }
  // Sum of per-window billed_usd, folded in window order (bit-reproducible
  // given the same recording sequence).
  Usd TotalBilledUsd() const;
  Usd TotalWasteUsd(WasteKind kind) const;
  // Sums of per-window network columns, folded in window order.
  Usd TotalNetUsd() const;
  int64_t TotalNetBytes() const;

 private:
  // Hot path: one branch against the last-hit window. Simulators emit events
  // in near-sorted sim time, so consecutive hooks almost always land in the
  // same window and skip both the 64-bit division and the slow-path call.
  WindowStats& WindowFor(MicroSecs t) {
    // The cache starts cold, so the first record always reaches
    // WindowForSlow, which seals the objective list — no store needed here.
    if (t >= cached_lo_ && t - cached_lo_ < window_) {
      return windows_[static_cast<size_t>(cached_idx_)];
    }
    return WindowForSlow(t);
  }
  WindowStats& WindowForSlow(MicroSecs t);

  MicroSecs window_;
  std::vector<MicroSecs> objectives_;
  std::vector<WindowStats> windows_;
  // Last-hit window cache; lo starts past any timestamp so the first call
  // always takes the slow path (which seeds it).
  int64_t cached_idx_ = 0;
  MicroSecs cached_lo_ = std::numeric_limits<MicroSecs>::max();
  bool sealed_objectives_ = false;
};

// Bitwise per-window reconciliation of the time series' billed-USD column
// against the USD carried on terminal spans. Spans are bucketed by end time
// (start + duration — the timestamp RecordBilled contractually receives) in
// emission order, then each window and the window-order folded totals are
// compared bit-for-bit.
struct BilledReconciliation {
  bool ok = false;
  int64_t first_mismatch_window = -1;  // -1 when ok.
  Usd timeseries_total = 0.0;
  Usd span_total = 0.0;
};
BilledReconciliation ReconcileBilledUsd(const TimeSeries& series,
                                        const SpanLog& spans);

// Feeds post-run-priced terminal spans into the series (PlatformSim bills
// spans after the run via TagPlatformSpanBilling, so it cannot call
// RecordBilled inline). Iterates spans in emission order; by construction
// the series then reconciles bitwise against the same span log.
void IngestBilledSpans(TimeSeries& series, const SpanLog& spans);

// Same bitwise reconciliation for the network column: the USD carried on
// kTransfer spans (bucketed by end time, folded in emission order) must
// reproduce the series' per-window net_usd exactly. kTransfer spans are
// non-terminal, so the compute-billing reconciliation above never sees them
// and the two columns stay disjoint.
BilledReconciliation ReconcileTransferUsd(const TimeSeries& series,
                                          const SpanLog& spans);

}  // namespace faascost

#endif  // FAASCOST_OBS_TIMESERIES_H_
