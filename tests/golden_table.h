// Field-level golden tables shared by the engine golden tests
// (tests/cluster/fleet_golden_test.cc, tests/platform/platform_golden_test.cc,
// tests/workflow/workflow_golden_test.cc). A test renders a result as
// (name, value) pairs: counts as integers, doubles as IEEE-754 bit patterns
// (Bits), whole tables as FNV digests (Hex; SpanDigest and WindowDigest for
// the observability outputs). A golden row is one string of
// whitespace-separated name=value pairs, and a mismatch prints the actual
// row ready to paste.

#ifndef FAASCOST_TESTS_GOLDEN_TABLE_H_
#define FAASCOST_TESTS_GOLDEN_TABLE_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/integrity/digest.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace faascost::golden {

using Fields = std::vector<std::pair<std::string, std::string>>;

inline std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string Bits(double v) { return Hex(std::bit_cast<uint64_t>(v)); }

// Every field of every span, in emission order.
inline uint64_t SpanDigest(const SpanLog& spans) {
  StateDigest d;
  for (const Span& s : spans) {
    d.MixI64(static_cast<int64_t>(s.kind));
    d.MixI64(s.group);
    d.MixI64(s.track);
    d.MixI64(s.start);
    d.MixI64(s.duration);
    d.MixI64(s.req_idx);
    d.MixI64(s.attempt);
    d.MixI64(s.sandbox_id);
    d.MixI64(s.ref);
    d.MixStr(s.status);
    d.MixBool(s.cold);
    d.MixBool(s.terminal);
    d.MixI64(s.billed_micros);
    d.MixDouble(s.billed_usd);
  }
  return d.value();
}

// Every column of every window: the counts, the USD sums, the latency
// histogram's summary and quantiles, and the SLO good counters.
inline uint64_t WindowDigest(const TimeSeries& series) {
  StateDigest d;
  for (size_t i = 0; i < series.window_count(); ++i) {
    const WindowStats& w = series.window_at(i);
    d.MixI64(w.arrivals);
    d.MixI64(w.dispatches);
    d.MixI64(w.cold_starts);
    d.MixI64(w.completions);
    d.MixI64(w.failures);
    d.MixI64(w.retries);
    d.MixDouble(w.billed_usd);
    d.MixI64(w.queue_depth_max);
    d.MixI64(w.busy_micros);
    d.MixI64(w.latency_us.count());
    d.MixI64(w.latency_us.rejected());
    d.MixDouble(w.latency_us.min());
    d.MixDouble(w.latency_us.max());
    d.MixDouble(w.latency_us.sum());
    for (const double q : {0.5, 0.9, 0.99}) {
      d.MixDouble(w.latency_us.Quantile(q));
    }
    for (const int64_t g : w.good) {
      d.MixI64(g);
    }
    for (const double usd : w.waste_usd) {
      d.MixDouble(usd);
    }
    d.MixI64(w.net_bytes);
    d.MixDouble(w.net_usd);
  }
  return d.value();
}

// The golden-table row for `label` (e.g. "Shape::kCap429, 8") holding `got`.
inline std::string Pasteable(const std::string& label, const Fields& got) {
  std::ostringstream out;
  out << "    {" << label << ",\n     \"";
  int col = 0;
  for (const auto& [name, value] : got) {
    if (col == 3) {
      out << "\"\n     \"";
      col = 0;
    }
    out << name << "=" << value << " ";
    ++col;
  }
  out << "\"},\n";
  return out.str();
}

// Expects `got` to match the golden row `want` field by field; a null `want`
// means the label has no golden row yet. `how` names the run (straight,
// sliced, resumed, ...) in failure messages.
inline void ExpectFields(const std::string& label, const char* want, const Fields& got,
                         const char* how) {
  ASSERT_NE(want, nullptr) << label << " has no golden; actual:\n" << Pasteable(label, got);
  std::istringstream in(want);
  Fields expected;
  for (std::string pair; in >> pair;) {
    const size_t eq = pair.find('=');
    expected.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
  }
  ASSERT_EQ(got.size(), expected.size()) << "golden field list is stale";
  bool all_equal = true;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, expected[i].first);
    EXPECT_EQ(got[i].second, expected[i].second)
        << label << " (" << how << "): " << got[i].first;
    all_equal = all_equal && got[i].second == expected[i].second;
  }
  if (!all_equal) {
    ADD_FAILURE() << "actual:\n" << Pasteable(label, got);
  }
}

}  // namespace faascost::golden

#endif  // FAASCOST_TESTS_GOLDEN_TABLE_H_
