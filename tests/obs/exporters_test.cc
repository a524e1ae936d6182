#include "src/obs/exporters.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/span.h"

namespace faascost {
namespace {

std::vector<Span> SampleSpans() {
  std::vector<Span> spans;
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
