#include "src/obs/timeseries.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace faascost {

namespace {

// Bitwise double equality (IEEE-754 payload compare). The reconciliation
// contract is bit-for-bit, so an epsilon compare would defeat its purpose;
// operator== on doubles is both banned (faaslint R5) and wrong here (it
// treats +0.0 == -0.0 and NaN != NaN).
bool SameBits(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

}  // namespace

const char* WasteKindName(WasteKind kind) {
  switch (kind) {
    case WasteKind::kFailedAttempt:
      return "failed_attempt";
    case WasteKind::kColdInit:
      return "cold_init";
    case WasteKind::kHedgeLoser:
      return "hedge_loser";
    case WasteKind::kStraggler:
      return "straggler";
    case WasteKind::kDeadLetter:
      return "dead_letter";
    case WasteKind::kFailedEgress:
      return "failed_egress";
    case WasteKind::kCrossZoneDetour:
      return "cross_zone_detour";
  }
  return "unknown";
}

std::optional<WasteKind> WasteKindFromName(std::string_view name) {
  for (const WasteKind k : kAllWasteKinds) {
    if (name == WasteKindName(k)) {
      return k;
    }
  }
  return std::nullopt;
}

// --- StreamingHistogram ---

int StreamingHistogram::BucketIndex(int64_t v) {
  constexpr int64_t kExactLimit = int64_t{1} << kSubBucketBits;
  if (v < kExactLimit) {
    return static_cast<int>(v);
  }
  // v in [2^(e-1), 2^e): shift so the mantissa keeps kSubBucketBits+1 bits,
  // giving 2^kSubBucketBits sub-buckets per octave.
  const int e = std::bit_width(static_cast<uint64_t>(v));
  const int shift = e - (kSubBucketBits + 1);
  const int64_t sub = v >> shift;  // In [2^kSubBucketBits, 2^(kSubBucketBits+1)).
  const int octave = e - kSubBucketBits;  // 1 for the first scaled octave.
  return octave * static_cast<int>(kExactLimit) +
         static_cast<int>(sub - kExactLimit);
}

int64_t StreamingHistogram::BucketLow(int index) {
  constexpr int kExact = 1 << kSubBucketBits;
  if (index < kExact) {
    return index;
  }
  const int octave = index / kExact;
  const int sub = index % kExact;
  return static_cast<int64_t>(kExact + sub) << (octave - 1);
}

int64_t StreamingHistogram::BucketHigh(int index) {
  constexpr int kExact = 1 << kSubBucketBits;
  if (index < kExact) {
    return index;
  }
  const int octave = index / kExact;
  return BucketLow(index) + ((int64_t{1} << (octave - 1)) - 1);
}

void StreamingHistogram::BumpBucket(int index, int64_t n) {
  if (buckets_.empty()) {
    base_ = index;
    buckets_.push_back(0);
  } else if (index < base_) {
    buckets_.insert(buckets_.begin(), static_cast<size_t>(base_ - index), 0);
    base_ = index;
  } else if (static_cast<size_t>(index - base_) >= buckets_.size()) {
    buckets_.resize(static_cast<size_t>(index - base_) + 1, 0);
  }
  buckets_[static_cast<size_t>(index - base_)] += n;
}

void StreamingHistogram::SpillRaw() {
  for (const double v : raw_) {
    BumpBucket(BucketIndex(static_cast<int64_t>(v)), 1);
  }
  raw_.clear();
  raw_.shrink_to_fit();
}

void StreamingHistogram::Observe(double value) {
  // NaN fails every comparison, so `!(value >= 0.0)` rejects NaN and
  // negatives in one test; the upper bound rejects +inf and anything that
  // would overflow the int64 bucketing.
  if (!(value >= 0.0) || value >= 9.2e18) {
    ++rejected_;
    return;
  }
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (buckets_.empty()) {
    // Sparse-window fast path: keep raw samples (exact quantiles, one small
    // allocation) until the count justifies bucketing.
    if (raw_.size() < static_cast<size_t>(kInlineSamples)) {
      if (raw_.capacity() == 0) {
        raw_.reserve(static_cast<size_t>(kInlineSamples));
      }
      raw_.push_back(value);
      return;
    }
    SpillRaw();
  }
  BumpBucket(BucketIndex(static_cast<int64_t>(value)), 1);
}

double StreamingHistogram::Mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double StreamingHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(
                               std::ceil(q * static_cast<double>(count_))));
  if (!raw_.empty()) {
    // Raw samples: the quantile is the exact rank-th smallest value.
    std::vector<double> sorted(raw_);
    std::sort(sorted.begin(), sorted.end());
    return sorted[static_cast<size_t>(rank - 1)];
  }
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      const int index = base_ + static_cast<int>(i);
      const double mid = static_cast<double>(BucketLow(index) + BucketHigh(index)) / 2.0;
      // Clamping into [min, max] makes single-sample and all-equal windows
      // return the exact observed value (min == max pins the result).
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

// --- WindowStats / TimeSeries ---

double WindowStats::WasteTotal() const {
  double total = 0.0;
  for (const double w : waste_usd) {
    total += w;
  }
  return total;
}

TimeSeries::TimeSeries(MicroSecs window) : window_(window) {
  if (window <= 0) {
    throw std::invalid_argument("TimeSeries window must be > 0, got " +
                                std::to_string(window));
  }
}

int TimeSeries::AddLatencyObjective(MicroSecs objective) {
  if (sealed_objectives_) {
    throw std::logic_error(
        "TimeSeries::AddLatencyObjective after recording started");
  }
  objectives_.push_back(objective);
  return static_cast<int>(objectives_.size()) - 1;
}

WindowStats& TimeSeries::WindowForSlow(MicroSecs t) {
  sealed_objectives_ = true;
  const int64_t index = t >= 0 ? t / window_ : 0;
  if (static_cast<size_t>(index) >= windows_.size()) {
    const size_t old = windows_.size();
    windows_.resize(static_cast<size_t>(index) + 1);
    for (size_t i = old; i < windows_.size(); ++i) {
      windows_[i].good.assign(objectives_.size(), 0);
    }
  }
  cached_idx_ = index;
  cached_lo_ = index * window_;
  return windows_[static_cast<size_t>(index)];
}

void TimeSeries::RecordCompletion(MicroSecs t, bool ok, MicroSecs latency) {
  WindowStats& w = WindowFor(t);
  ++w.completions;
  if (!ok) {
    ++w.failures;
  }
  w.latency_us.Observe(static_cast<double>(latency));
  for (size_t i = 0; i < objectives_.size(); ++i) {
    if (ok && latency <= objectives_[i]) {
      ++w.good[i];
    }
  }
}

void TimeSeries::RecordExecution(MicroSecs start, MicroSecs end) {
  if (end <= start) {
    return;
  }
  // Executions are almost always much shorter than a window, so the whole
  // span usually lands in the cached window — attribute it with one add and
  // skip both divisions below.
  if (start >= cached_lo_ && end - cached_lo_ <= window_) {
    windows_[static_cast<size_t>(cached_idx_)].busy_micros += end - start;
    return;
  }
  const int64_t first = start >= 0 ? start / window_ : 0;
  const int64_t last = (end - 1) / window_;
  for (int64_t i = first; i <= last; ++i) {
    const MicroSecs lo = std::max(start, i * window_);
    const MicroSecs hi = std::min(end, (i + 1) * window_);
    WindowFor(lo).busy_micros += hi - lo;
  }
}

Usd TimeSeries::TotalBilledUsd() const {
  Usd total = 0.0;
  for (const WindowStats& w : windows_) {
    total += w.billed_usd;
  }
  return total;
}

Usd TimeSeries::TotalWasteUsd(WasteKind kind) const {
  Usd total = 0.0;
  for (const WindowStats& w : windows_) {
    total += w.waste_usd[static_cast<int>(kind)];
  }
  return total;
}

Usd TimeSeries::TotalNetUsd() const {
  Usd total = 0.0;
  for (const WindowStats& w : windows_) {
    total += w.net_usd;
  }
  return total;
}

int64_t TimeSeries::TotalNetBytes() const {
  int64_t total = 0;
  for (const WindowStats& w : windows_) {
    total += w.net_bytes;
  }
  return total;
}

namespace {

// Buckets the USD of the spans `counted` selects by end-time window, in
// emission order: the order the series accumulated `column` in, so
// per-window sums agree bitwise, not just "up to reassociation". Then
// compares each window, and the column folded in window order (as
// TotalBilledUsd and TotalNetUsd fold it) against the span total.
template <typename Counted>
BilledReconciliation Reconcile(const TimeSeries& series, const SpanLog& spans,
                               Counted counted, double WindowStats::*column) {
  BilledReconciliation rec;
  const MicroSecs width = series.window();
  std::vector<double> by_window;
  for (const Span& sp : spans) {
    if (!counted(sp)) {
      continue;
    }
    const MicroSecs end = sp.start + sp.duration;
    const int64_t index = end >= 0 ? end / width : 0;
    if (static_cast<size_t>(index) >= by_window.size()) {
      by_window.resize(static_cast<size_t>(index) + 1, 0.0);
    }
    by_window[static_cast<size_t>(index)] += sp.billed_usd;
  }

  const size_t n = std::max(series.window_count(), by_window.size());
  for (size_t i = 0; i < n; ++i) {
    const double from_series =
        i < series.window_count() ? series.window_at(i).*column : 0.0;
    const double from_spans = i < by_window.size() ? by_window[i] : 0.0;
    if (!SameBits(from_series, from_spans)) {
      rec.first_mismatch_window = static_cast<int64_t>(i);
      break;
    }
  }
  for (size_t i = 0; i < series.window_count(); ++i) {
    rec.timeseries_total += series.window_at(i).*column;
  }
  for (const double w : by_window) {
    rec.span_total += w;
  }
  rec.ok = rec.first_mismatch_window == -1 &&
           SameBits(rec.timeseries_total, rec.span_total);
  return rec;
}

}  // namespace

BilledReconciliation ReconcileBilledUsd(const TimeSeries& series,
                                        const SpanLog& spans) {
  // Terminal spans carry the billed USD. kWorkflow spans are roll-ups of
  // their per-attempt spans plus orchestration fees — counting both sides
  // would double count.
  return Reconcile(
      series, spans,
      [](const Span& sp) { return sp.terminal && sp.kind != SpanKind::kWorkflow; },
      &WindowStats::billed_usd);
}

BilledReconciliation ReconcileTransferUsd(const TimeSeries& series,
                                          const SpanLog& spans) {
  return Reconcile(
      series, spans, [](const Span& sp) { return sp.kind == SpanKind::kTransfer; },
      &WindowStats::net_usd);
}

void IngestBilledSpans(TimeSeries& series, const SpanLog& spans) {
  for (const Span& sp : spans) {
    if (!sp.terminal || sp.kind == SpanKind::kWorkflow) {
      continue;
    }
    const MicroSecs end = sp.start + sp.duration;
    series.RecordBilled(end, sp.billed_usd);
    if (std::strcmp(sp.status, "ok") == 0 || sp.status[0] == '\0') {
      continue;
    }
    WasteKind kind = WasteKind::kFailedAttempt;
    if (std::strcmp(sp.status, "hedge_loser") == 0) {
      kind = WasteKind::kHedgeLoser;
    } else if (std::strcmp(sp.status, "dead_lettered") == 0) {
      kind = WasteKind::kDeadLetter;
    }
    series.RecordWaste(end, kind, sp.billed_usd);
  }
}

}  // namespace faascost
