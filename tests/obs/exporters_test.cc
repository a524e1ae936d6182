#include "src/obs/exporters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace faascost {
namespace {

SpanLog SampleSpans() {
  SpanLog spans;
  Span a;
  a.kind = SpanKind::kExec;
  a.group = kTrackGroupClient;
  a.track = 3;
  a.start = 2'000;
  a.duration = 1'500;
  a.req_idx = 3;
  a.attempt = 1;
  a.status = "ok";
  a.terminal = true;
  a.billed_micros = 2'000;
  a.billed_usd = 1.25e-7;
  spans.push_back(a);

  Span b;
  b.kind = SpanKind::kInit;
  b.group = kTrackGroupClient;
  b.track = 3;
  b.start = 500;
  b.duration = 1'000;
  b.cold = true;
  spans.push_back(b);

  Span c;
  c.kind = SpanKind::kThrottle;
  c.group = kTrackGroupTenant;
  c.track = 0;
  c.start = 0;
  c.duration = 40'000;
  spans.push_back(c);
  return spans;
}

TEST(ChromeTraceJson, ContainsMetadataAndEvents) {
  const std::string json = ChromeTraceJson(SampleSpans());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One process_name metadata event per track group present in the spans.
  EXPECT_NE(json.find("platform.requests"), std::string::npos);
  EXPECT_NE(json.find("sched.tenants"), std::string::npos);
  EXPECT_EQ(json.find("fleet.functions"), std::string::npos);
  // Span payloads.
  EXPECT_NE(json.find("\"name\":\"exec\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"billed_usd\":1.25e-07"), std::string::npos);
  EXPECT_NE(json.find("\"cold\":true"), std::string::npos);
}

TEST(ChromeTraceJson, SortsByTrackThenTime) {
  // The init span starts before the exec span on the same track, so it must
  // be emitted first even though it was recorded second.
  const std::string json = ChromeTraceJson(SampleSpans());
  const size_t init_pos = json.find("\"name\":\"init\"");
  const size_t exec_pos = json.find("\"name\":\"exec\"");
  ASSERT_NE(init_pos, std::string::npos);
  ASSERT_NE(exec_pos, std::string::npos);
  EXPECT_LT(init_pos, exec_pos);
}

TEST(ChromeTraceJson, ExportTwiceIsByteIdentical) {
  const auto spans = SampleSpans();
  EXPECT_EQ(ChromeTraceJson(spans), ChromeTraceJson(spans));
}

TEST(ChromeTraceJson, EmptyInputIsValidDocument) {
  const std::string json = ChromeTraceJson({});
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

// The straightforward exporter, kept as the byte-identity oracle for
// ChromeTraceJson: copy the spans, stable-sort them, write every event
// through JsonWriter.
bool ReferenceSpanBefore(const Span& a, const Span& b) {
  if (a.group != b.group) {
    return a.group < b.group;
  }
  if (a.track != b.track) {
    return a.track < b.track;
  }
  if (a.start != b.start) {
    return a.start < b.start;
  }
  return a.duration > b.duration;
}

std::string ReferenceChromeTraceJson(const SpanLog& spans) {
  std::vector<Span> sorted(spans.begin(), spans.end());
  std::stable_sort(sorted.begin(), sorted.end(), ReferenceSpanBefore);
  std::set<int> groups;
  for (const Span& s : sorted) {
    groups.insert(s.group);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.Value("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const int group : groups) {
    w.BeginObject();
    w.KV("ph", "M");
    w.KV("pid", static_cast<int64_t>(group));
    w.KV("name", "process_name");
    w.Key("args");
    w.BeginObject();
    w.KV("name", TrackGroupName(group));
    w.EndObject();
    w.EndObject();
  }
  for (const Span& s : sorted) {
    w.BeginObject();
    w.KV("ph", "X");
    w.KV("name", SpanKindName(s.kind));
    w.KV("cat", TrackGroupName(s.group));
    w.KV("pid", static_cast<int64_t>(s.group));
    w.KV("tid", s.track);
    w.KV("ts", s.start);
    w.KV("dur", s.duration);
    w.Key("args");
    w.BeginObject();
    if (s.req_idx >= 0) {
      w.KV("req", static_cast<int64_t>(s.req_idx));
      w.KV("attempt", static_cast<int64_t>(s.attempt));
    }
    if (s.sandbox_id >= 0) {
      w.KV("sandbox", static_cast<int64_t>(s.sandbox_id));
    }
    if (s.status != nullptr && s.status[0] != '\0') {
      w.KV("status", s.status);
    }
    if (s.cold) {
      w.KV("cold", true);
    }
    if (s.terminal) {
      w.KV("billed_us", s.billed_micros);
      w.KV("billed_usd", s.billed_usd);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

// Spans drawn from small ranges, so exact (group, track, start, duration)
// ties and same-start nestings are common, plus the edge values of every
// field the exporter formats.
SpanLog RandomSpans(uint64_t seed, size_t count) {
  static const char* const kStatuses[] = {
      nullptr, "", "ok", "crash", "quote\"inside", "back\\slash",
      "ctl\x01" "byte\x1f", "tab\tnl\nret\r", "caf\xc3\xa9"};
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const double kUsd[] = {0.0,
                         -0.0,
                         1.25e-7,
                         0.1 + 0.2,
                         -3.5,
                         1e300,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  Rng rng(seed);
  SpanLog spans;
  for (size_t i = 0; i < count; ++i) {
    Span& s = spans.emplace_back();
    // Kinds past kTransfer, and negative ones, render as "unknown".
    s.kind = static_cast<SpanKind>(rng.UniformInt(-1, 17));
    // Groups 1-6 are the named track groups; 0 and 7 render as "unknown".
    s.group = static_cast<int>(rng.UniformInt(0, 7));
    s.track = rng.Bernoulli(0.02) ? (rng.Bernoulli(0.5) ? kMin : kMax)
                                  : rng.UniformInt(-2, 4);
    s.start = rng.Bernoulli(0.02) ? kMax : rng.UniformInt(0, 6);
    s.duration = rng.UniformInt(-1, 4);
    s.req_idx = static_cast<int32_t>(rng.UniformInt(-3, 3));
    s.attempt = static_cast<int32_t>(rng.UniformInt(0, 3));
    s.sandbox_id = static_cast<int32_t>(rng.UniformInt(-3, 3));
    s.status = kStatuses[rng.UniformInt(0, 8)];
    s.cold = rng.Bernoulli(0.3);
    s.terminal = rng.Bernoulli(0.4);
    s.billed_micros = rng.Bernoulli(0.05) ? kMin : rng.UniformInt(-5, 5'000'000);
    s.billed_usd = rng.Bernoulli(0.5) ? kUsd[rng.UniformInt(0, 8)]
                                      : rng.Uniform(-1.0, 1.0) * 1e-6;
  }
  return spans;
}

// Three spans with identical sort keys, told apart only by req_idx.
SpanLog ExactTies() {
  SpanLog spans;
  for (int32_t i = 0; i < 3; ++i) {
    Span& s = spans.emplace_back();
    s.group = kTrackGroupSandbox;
    s.track = 9;
    s.start = 100;
    s.duration = 50;
    s.req_idx = i;
  }
  return spans;
}

TEST(ChromeTraceJson, MatchesReferenceBytes) {
  std::vector<SpanLog> inputs = {{}, SampleSpans(), ExactTies(), ExactTies()};
  std::reverse(inputs.back().begin(), inputs.back().end());
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    inputs.push_back(RandomSpans(seed, seed * 7));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(ChromeTraceJson(inputs[i]), ReferenceChromeTraceJson(inputs[i]))
        << "input " << i;
  }
}

TEST(TimeSeriesJsonl, ObjectiveColumnsNameEachObjective) {
  TimeSeries series(kMicrosPerSec);
  series.AddLatencyObjective(500);          // 0.5 ms (`monitor --slo 0.5`).
  series.AddLatencyObjective(1'000);        // 1 ms and 1.5 ms must not share
  series.AddLatencyObjective(1'500);        // a column name.
  series.AddLatencyObjective(1'000'000);    // The 1,000 ms default.
  series.AddLatencyObjective(250'000'000);  // Whole ms stay integers.
  series.RecordCompletion(10, true, 800);
  const std::string row = TimeSeriesJsonl(series);
  EXPECT_NE(row.find("\"good_within_0.5ms\":0,"), std::string::npos) << row;
  EXPECT_NE(row.find("\"good_within_1ms\":1,"), std::string::npos) << row;
  EXPECT_NE(row.find("\"good_within_1.5ms\":1,"), std::string::npos) << row;
  EXPECT_NE(row.find("\"good_within_1000ms\":1,"), std::string::npos) << row;
  EXPECT_NE(row.find("\"good_within_250000ms\":1}"), std::string::npos) << row;
  EXPECT_EQ(row.find("good_within_0ms"), std::string::npos) << row;
  size_t columns = 0;
  for (size_t at = row.find("good_within_"); at != std::string::npos;
       at = row.find("good_within_", at + 1)) {
    ++columns;
  }
  EXPECT_EQ(columns, 5u) << row;
}

TEST(SpanCollector, RecordsInEmissionOrder) {
  SpanCollector collector;
  Span s;
  s.track = 1;
  collector.Record(s);
  s.track = 2;
  collector.Record(s);
  ASSERT_EQ(collector.spans().size(), 2u);
  EXPECT_EQ(collector.spans()[0].track, 1);
  EXPECT_EQ(collector.spans()[1].track, 2);
  collector.Clear();
  EXPECT_TRUE(collector.spans().empty());
}

TEST(SpanNames, AllKindsNamed) {
  EXPECT_STREQ(SpanKindName(SpanKind::kQueueWait), "queue_wait");
  EXPECT_STREQ(SpanKindName(SpanKind::kExec), "exec");
  EXPECT_STREQ(SpanKindName(SpanKind::kThrottle), "throttle");
  EXPECT_STREQ(SpanKindName(SpanKind::kPreempt), "preempt");
  EXPECT_STREQ(TrackGroupName(kTrackGroupClient), "platform.requests");
  EXPECT_STREQ(TrackGroupName(kTrackGroupFleetFunction), "fleet.functions");
}

}  // namespace
}  // namespace faascost
