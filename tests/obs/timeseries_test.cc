#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/common/units.h"
#include "src/obs/span.h"

namespace faascost {
namespace {

bool BitEqual(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// --- StreamingHistogram degenerate inputs ---

TEST(StreamingHistogramTest, EmptyHistogramQuantilesAreZero) {
  StreamingHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(StreamingHistogramTest, SingleSampleEveryQuantileIsExact) {
  StreamingHistogram h;
  h.Observe(12'345.0);
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 12'345.0) << "q=" << q;
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.Mean(), 12'345.0);
}

TEST(StreamingHistogramTest, AllEqualSamplesPinQuantilesToTheValue) {
  StreamingHistogram h;
  for (int i = 0; i < 1'000; ++i) {
    h.Observe(777'777.0);
  }
  for (const double q : {0.01, 0.5, 0.999}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 777'777.0) << "q=" << q;
  }
}

TEST(StreamingHistogramTest, RejectsNanInfAndNegative) {
  StreamingHistogram h;
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(-std::numeric_limits<double>::infinity());
  h.Observe(-1.0);
  h.Observe(9.3e18);  // Past the int64 bucketing range.
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.rejected(), 5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  // Valid samples still work after rejections.
  h.Observe(5.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.rejected(), 5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
}

TEST(StreamingHistogramTest, SmallValuesAreExact) {
  // Below 2^kSubBucketBits every integer has its own bucket.
  StreamingHistogram h;
  for (int v = 0; v < 64; ++v) {
    h.Observe(static_cast<double>(v));
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 63.0);
  // Rank 32 of 64 -> value 31 exactly.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 31.0);
}

TEST(StreamingHistogramTest, LargeValueQuantileWithinResolution) {
  StreamingHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Observe(1.0e6);
  }
  // One bucket holds everything: the clamped midpoint is the exact value.
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1.0e6);
  // Mixed values land within the documented ~1.6% relative resolution.
  StreamingHistogram m;
  m.Observe(1.0e6);
  m.Observe(2.0e6);
  m.Observe(3.0e6);
  const double p100 = m.Quantile(1.0);
  EXPECT_NEAR(p100, 3.0e6, 3.0e6 * 0.017);
}

// --- Window boundary determinism ---

TEST(TimeSeriesTest, EventExactlyOnWindowEdgeOpensTheNextWindow) {
  // The boundary rule is t / width: an event at exactly k * width belongs to
  // window k, never window k-1, regardless of recording order or seed.
  const MicroSecs width = kMicrosPerSec;
  TimeSeries series(width);
  series.RecordArrival(width - 1);  // Last tick of window 0.
  series.RecordArrival(width);      // First tick of window 1.
  series.RecordArrival(2 * width);  // First tick of window 2.
  ASSERT_EQ(series.window_count(), 3u);
  EXPECT_EQ(series.window_at(0).arrivals, 1);
  EXPECT_EQ(series.window_at(1).arrivals, 1);
  EXPECT_EQ(series.window_at(2).arrivals, 1);
}

TEST(TimeSeriesTest, BoundaryAssignmentIsOrderIndependent) {
  const MicroSecs width = 100;
  const std::vector<MicroSecs> forward = {0, 99, 100, 199, 200, 300};
  std::vector<MicroSecs> reversed(forward.rbegin(), forward.rend());
  TimeSeries a(width);
  TimeSeries b(width);
  for (const MicroSecs t : forward) {
    a.RecordArrival(t);
  }
  for (const MicroSecs t : reversed) {
    b.RecordArrival(t);
  }
  ASSERT_EQ(a.window_count(), b.window_count());
  for (size_t i = 0; i < a.window_count(); ++i) {
    EXPECT_EQ(a.window_at(i).arrivals, b.window_at(i).arrivals) << "window " << i;
  }
}

TEST(TimeSeriesTest, ThrowsOnNonPositiveWindow) {
  EXPECT_THROW(TimeSeries(0), std::invalid_argument);
  EXPECT_THROW(TimeSeries(-5), std::invalid_argument);
}

TEST(TimeSeriesTest, ObjectivesSealAfterFirstRecord) {
  TimeSeries series(100);
  series.AddLatencyObjective(50);
  series.RecordCompletion(10, true, 40);
  EXPECT_THROW(series.AddLatencyObjective(60), std::logic_error);
  EXPECT_EQ(series.window_at(0).good.size(), 1u);
  EXPECT_EQ(series.window_at(0).good[0], 1);
}

TEST(TimeSeriesTest, GoodCountsRequireOkAndWithinObjective) {
  TimeSeries series(1'000);
  series.AddLatencyObjective(100);
  series.RecordCompletion(10, true, 100);    // Within (inclusive).
  series.RecordCompletion(20, true, 101);    // Too slow.
  series.RecordCompletion(30, false, 50);    // Fast but failed.
  EXPECT_EQ(series.window_at(0).completions, 3);
  EXPECT_EQ(series.window_at(0).failures, 1);
  EXPECT_EQ(series.window_at(0).good[0], 1);
}

TEST(TimeSeriesTest, ExecutionOverlapSplitsAcrossWindows) {
  TimeSeries series(100);
  // [50, 250) overlaps window 0 by 50, window 1 by 100, window 2 by 50.
  series.RecordExecution(50, 250);
  ASSERT_EQ(series.window_count(), 3u);
  EXPECT_EQ(series.window_at(0).busy_micros, 50);
  EXPECT_EQ(series.window_at(1).busy_micros, 100);
  EXPECT_EQ(series.window_at(2).busy_micros, 50);
  // An execution ending exactly on an edge never touches the next window.
  TimeSeries edge(100);
  edge.RecordExecution(0, 100);
  ASSERT_EQ(edge.window_count(), 1u);
  EXPECT_EQ(edge.window_at(0).busy_micros, 100);
  // Empty and inverted intervals are ignored.
  edge.RecordExecution(50, 50);
  edge.RecordExecution(80, 20);
  EXPECT_EQ(edge.window_at(0).busy_micros, 100);
}

TEST(TimeSeriesTest, WasteAccumulatesByCategory) {
  TimeSeries series(100);
  series.RecordWaste(10, WasteKind::kColdInit, 1.0e-6);
  series.RecordWaste(10, WasteKind::kColdInit, 2.0e-6);
  series.RecordWaste(150, WasteKind::kHedgeLoser, 4.0e-6);
  EXPECT_DOUBLE_EQ(series.TotalWasteUsd(WasteKind::kColdInit), 3.0e-6);
  EXPECT_DOUBLE_EQ(series.TotalWasteUsd(WasteKind::kHedgeLoser), 4.0e-6);
  EXPECT_DOUBLE_EQ(series.TotalWasteUsd(WasteKind::kStraggler), 0.0);
  EXPECT_DOUBLE_EQ(series.window_at(0).WasteTotal(), 3.0e-6);
}

// --- Bitwise reconciliation ---

Span TerminalSpan(MicroSecs start, MicroSecs duration, Usd usd) {
  Span sp;
  sp.kind = SpanKind::kExec;
  sp.start = start;
  sp.duration = duration;
  sp.status = "ok";
  sp.terminal = true;
  sp.billed_usd = usd;
  return sp;
}

TEST(ReconcileBilledUsdTest, MatchingSeriesAndSpansReconcileBitwise) {
  const MicroSecs width = 1'000;
  TimeSeries series(width);
  SpanLog spans;
  // Awkward doubles whose sum depends on accumulation order: the reconciler
  // must agree bit-for-bit anyway because both sides fold in emission order.
  const Usd values[] = {1.0e-7, 3.333333333e-8, 7.77e-9, 1.0e-13, 2.5e-8};
  MicroSecs t = 100;
  for (const Usd v : values) {
    const MicroSecs duration = 450;
    spans.push_back(TerminalSpan(t, duration, v));
    series.RecordBilled(t + duration, v);
    t += 777;
  }
  const BilledReconciliation rec = ReconcileBilledUsd(series, spans);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.first_mismatch_window, -1);
  EXPECT_TRUE(BitEqual(rec.timeseries_total, rec.span_total));
}

TEST(ReconcileBilledUsdTest, DetectsASingleDroppedAttempt) {
  TimeSeries series(1'000);
  SpanLog spans;
  spans.push_back(TerminalSpan(0, 500, 1.0e-7));
  spans.push_back(TerminalSpan(1'200, 500, 2.0e-7));
  series.RecordBilled(500, 1.0e-7);
  // Second attempt never recorded: window 1 must mismatch.
  const BilledReconciliation rec = ReconcileBilledUsd(series, spans);
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(rec.first_mismatch_window, 1);
}

TEST(ReconcileBilledUsdTest, DetectsAOneUlpPerturbation) {
  TimeSeries series(1'000);
  SpanLog spans;
  const Usd usd = 1.23456789e-7;
  spans.push_back(TerminalSpan(0, 500, usd));
  series.RecordBilled(500, std::nextafter(usd, 1.0));
  const BilledReconciliation rec = ReconcileBilledUsd(series, spans);
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(rec.first_mismatch_window, 0);
}

TEST(ReconcileBilledUsdTest, IgnoresNonTerminalAndWorkflowRollupSpans) {
  TimeSeries series(1'000);
  SpanLog spans;
  spans.push_back(TerminalSpan(0, 500, 1.0e-7));
  Span open = TerminalSpan(0, 500, 9.9e-5);
  open.terminal = false;  // Non-terminal USD must not be counted.
  spans.push_back(open);
  Span rollup = TerminalSpan(0, 800, 5.5e-5);
  rollup.kind = SpanKind::kWorkflow;  // Roll-up of per-attempt spans.
  spans.push_back(rollup);
  series.RecordBilled(500, 1.0e-7);
  EXPECT_TRUE(ReconcileBilledUsd(series, spans).ok);
}

TEST(IngestBilledSpansTest, RoundTripsToABitwiseReconciliation) {
  SpanLog spans;
  spans.push_back(TerminalSpan(100, 400, 3.0e-8));
  Span failed = TerminalSpan(900, 300, 5.0e-8);
  failed.status = "crash";
  spans.push_back(failed);
  Span hedge = TerminalSpan(2'100, 100, 7.0e-8);
  hedge.status = "hedge_loser";
  spans.push_back(hedge);
  Span dlq = TerminalSpan(3'100, 100, 9.0e-8);
  dlq.status = "dead_lettered";
  spans.push_back(dlq);

  TimeSeries series(1'000);
  IngestBilledSpans(series, spans);
  EXPECT_TRUE(ReconcileBilledUsd(series, spans).ok);
  EXPECT_DOUBLE_EQ(series.TotalWasteUsd(WasteKind::kFailedAttempt), 5.0e-8);
  EXPECT_DOUBLE_EQ(series.TotalWasteUsd(WasteKind::kHedgeLoser), 7.0e-8);
  EXPECT_DOUBLE_EQ(series.TotalWasteUsd(WasteKind::kDeadLetter), 9.0e-8);
  // "ok" spans bill but do not waste.
  EXPECT_DOUBLE_EQ(series.TotalWasteUsd(WasteKind::kColdInit), 0.0);
}

// --- Network column ---

Span TransferSpan(MicroSecs start, MicroSecs duration, int64_t bytes, Usd usd) {
  Span sp;
  sp.kind = SpanKind::kTransfer;
  sp.start = start;
  sp.duration = duration;
  sp.ref = bytes;
  sp.billed_usd = usd;
  return sp;
}

TEST(TimeSeriesTest, TransfersAccumulateBytesAndUsdPerWindow) {
  TimeSeries series(1'000);
  series.RecordTransfer(100, 4'096, 1.0e-7);
  series.RecordTransfer(900, 8'192, 2.0e-7);
  series.RecordTransfer(1'500, 1'024, 5.0e-8);
  EXPECT_EQ(series.window_at(0).net_bytes, 12'288);
  EXPECT_EQ(series.window_at(1).net_bytes, 1'024);
  EXPECT_EQ(series.TotalNetBytes(), 13'312);
  EXPECT_DOUBLE_EQ(series.TotalNetUsd(), 1.0e-7 + 2.0e-7 + 5.0e-8);
  // The network column is disjoint from compute billing.
  EXPECT_DOUBLE_EQ(series.TotalBilledUsd(), 0.0);
}

TEST(ReconcileTransferUsdTest, MatchingSeriesAndSpansReconcileBitwise) {
  const MicroSecs width = 1'000;
  TimeSeries series(width);
  SpanLog spans;
  // Order-sensitive doubles, as in the billed-USD reconciliation test.
  const Usd values[] = {1.0e-7, 3.333333333e-8, 7.77e-9, 1.0e-13, 2.5e-8};
  MicroSecs t = 100;
  for (const Usd v : values) {
    const MicroSecs duration = 450;
    spans.push_back(TransferSpan(t, duration, 1'024, v));
    series.RecordTransfer(t + duration, 1'024, v);
    t += 777;
  }
  const BilledReconciliation rec = ReconcileTransferUsd(series, spans);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.first_mismatch_window, -1);
  EXPECT_TRUE(BitEqual(rec.timeseries_total, rec.span_total));
}

TEST(ReconcileTransferUsdTest, DetectsDropsAndPerturbations) {
  TimeSeries series(1'000);
  SpanLog spans;
  spans.push_back(TransferSpan(0, 500, 1'024, 1.0e-7));
  spans.push_back(TransferSpan(1'200, 500, 1'024, 2.0e-7));
  series.RecordTransfer(500, 1'024, 1.0e-7);
  // Second transfer never recorded: window 1 must mismatch.
  const BilledReconciliation dropped = ReconcileTransferUsd(series, spans);
  EXPECT_FALSE(dropped.ok);
  EXPECT_EQ(dropped.first_mismatch_window, 1);

  TimeSeries ulp(1'000);
  const Usd usd = 1.23456789e-7;
  SpanLog one;
  one.push_back(TransferSpan(0, 500, 1'024, usd));
  ulp.RecordTransfer(500, 1'024, std::nextafter(usd, 1.0));
  EXPECT_FALSE(ReconcileTransferUsd(ulp, one).ok);
}

TEST(ReconcileTransferUsdTest, ColumnsStayDisjoint) {
  // Transfer spans are invisible to the compute reconciliation and terminal
  // spans are invisible to the transfer reconciliation; a series carrying
  // both columns reconciles on each side independently.
  TimeSeries series(1'000);
  SpanLog spans;
  spans.push_back(TerminalSpan(0, 500, 1.0e-7));
  spans.push_back(TransferSpan(0, 300, 2'048, 4.0e-8));
  series.RecordBilled(500, 1.0e-7);
  series.RecordTransfer(300, 2'048, 4.0e-8);
  EXPECT_TRUE(ReconcileBilledUsd(series, spans).ok);
  EXPECT_TRUE(ReconcileTransferUsd(series, spans).ok);
}

}  // namespace
}  // namespace faascost
