// Exporters: Chrome trace-event JSON (loads in Perfetto / chrome://tracing)
// and the JSONL time series. Both are byte-deterministic functions of their
// inputs — no wall-clock timestamps, no pointer values, shortest-round-trip
// doubles — so the same seeded run always produces the same artifact bytes.

#ifndef FAASCOST_OBS_EXPORTERS_H_
#define FAASCOST_OBS_EXPORTERS_H_

#include <string>

#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace faascost {

// Renders spans as a Chrome trace-event JSON document (object form, one "X"
// complete event per span plus "M" metadata naming each track group).
// Events are stably sorted by (group, track, start, longer-first) so `ts` is
// monotone within every track and enclosing spans precede their children.
// The spans are neither copied nor keyed: a 4-byte index per span is
// bucketed by (group, track) with a radix sort, each track's run is sorted
// by start, and each event is written once into one pre-reserved string.
// Beyond the document, the export holds one index per span. Throws
// std::length_error for a log of 2^32 or more spans.
std::string ChromeTraceJson(const SpanLog& spans);

// Renders the tumbling-window time series as JSONL: one JSON object per
// window in index order, with rates, latency quantiles (p50/p95/p99 ms),
// billed USD (shortest-round-trip double, so the bytes re-parse to the
// bit-exact per-window sum), waste USD by category, queue depth, and average
// live concurrency, and one good_within_<ms>ms count per latency objective.
// Byte-deterministic for a deterministic run.
std::string TimeSeriesJsonl(const TimeSeries& series);

// Writes `content` to `path`, truncating. Returns false on I/O failure.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace faascost

#endif  // FAASCOST_OBS_EXPORTERS_H_
