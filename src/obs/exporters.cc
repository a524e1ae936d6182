#include "src/obs/exporters.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/fileio.h"
#include "src/common/json_writer.h"

namespace faascost {

namespace {

// A span's position in the log. The export order holds one per span, so the
// log may hold at most 2^32 - 1 spans.
using SpanIndex = uint32_t;

// A span's (group, track) bucket as 12 unsigned digits, least significant
// first: the track's 8 bytes, then the group's 4. Flipping the sign bits
// makes the digits order the way the signed values do.
constexpr int kTrackDigits = 8;
constexpr int kKeyDigits = kTrackDigits + 4;

unsigned KeyDigit(const Span& s, int digit) {
  if (digit < kTrackDigits) {
    const uint64_t track = static_cast<uint64_t>(s.track) ^ (uint64_t{1} << 63);
    return static_cast<unsigned>(track >> (8 * digit)) & 0xff;
  }
  const uint32_t group = static_cast<uint32_t>(s.group) ^ (uint32_t{1} << 31);
  return (group >> (8 * (digit - kTrackDigits))) & 0xff;
}

// Capacity bound for the output document. An "X" event takes at most 328
// bytes plus its escaped status (six bytes per character at worst): 142
// bytes of keys and punctuation, kind and group names of at most 20 quoted
// bytes, four int64 and four int32 values, and one double of at most 24
// characters. An "M" event takes at most 88. Reserved pages that are never
// written are never touched, so the slack costs no memory.
constexpr size_t kDocumentBytes = 64;
constexpr size_t kMetadataBytes = 96;
constexpr size_t kEventBytes = 384;

size_t EventBound(const Span& s) {
  return kEventBytes + (s.status != nullptr ? 6 * std::strlen(s.status) : 0);
}

// What the document needs before it is allocated.
struct ExportPlan {
  // Export order: (group, track, start, longer first), which keeps ts
  // monotone per (pid, tid) track and puts enclosing spans before
  // equal-start children; exact ties keep emission order.
  std::vector<SpanIndex> order;
  std::vector<int> groups;  // The track groups present, ascending.
  size_t bytes = kDocumentBytes;
};

// One pass in emission order counts every key digit and sums the event
// bounds. A stable LSD radix sort over the digits that vary then buckets
// the spans by (group, track), each track's run in emission order, and each
// run, short and nearly sorted in practice, is sorted by start. Ties there
// fall back to the emission index, so that sort gives the stable order
// without scratch. The radix scratch is freed on return.
ExportPlan PlanExport(const SpanLog& spans) {
  if (spans.size() > std::numeric_limits<SpanIndex>::max()) {
    throw std::length_error("ChromeTraceJson: more spans than a 32-bit index addresses");
  }
  const auto n = static_cast<SpanIndex>(spans.size());
  ExportPlan plan;
  std::vector<std::array<SpanIndex, 256>> counts(kKeyDigits);
  for (const Span& s : spans) {
    for (int digit = 0; digit < kKeyDigits; ++digit) {
      ++counts[digit][KeyDigit(s, digit)];
    }
    plan.bytes += EventBound(s);
  }
  std::vector<SpanIndex>& order = plan.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), SpanIndex{0});
  std::vector<SpanIndex> scratch;
  for (int digit = 0; digit < kKeyDigits; ++digit) {
    std::array<SpanIndex, 256>& bucket = counts[digit];
    // A digit every span shares moves nothing.
    if (n == 0 || bucket[KeyDigit(spans[0], digit)] == n) {
      continue;
    }
    SpanIndex at = 0;
    for (SpanIndex& slot : bucket) {
      at += std::exchange(slot, at);
    }
    scratch.resize(n);
    for (const SpanIndex i : order) {
      scratch[bucket[KeyDigit(spans[i], digit)]++] = i;
    }
    order.swap(scratch);
  }

  const auto before = [&spans](SpanIndex a, SpanIndex b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.start != y.start) {
      return x.start < y.start;
    }
    if (x.duration != y.duration) {
      return x.duration > y.duration;
    }
    return a < b;
  };
  for (auto run = order.begin(); run != order.end();) {
    const Span& first = spans[*run];
    if (plan.groups.empty() || plan.groups.back() != first.group) {
      plan.groups.push_back(first.group);
      plan.bytes += kMetadataBytes;
    }
    const auto end = std::find_if(run + 1, order.end(), [&](SpanIndex i) {
      return spans[i].track != first.track || spans[i].group != first.group;
    });
    std::sort(run, end, before);
    run = end;
  }
  return plan;
}

// The part of an "X" event fixed by its group and kind, from the opening
// brace up to the tid value.
std::string EventHead(int group, SpanKind kind) {
  std::string head = R"({"ph":"X","name":)";
  JsonWriter::AppendEscaped(&head, SpanKindName(kind));
  head += R"(,"cat":)";
  JsonWriter::AppendEscaped(&head, TrackGroupName(group));
  head += R"(,"pid":)";
  head += std::to_string(group);
  head += R"(,"tid":)";
  return head;
}

// Slots in the per-group table of event heads, indexed by SpanKind value;
// a kind outside the table has its head built per event.
constexpr size_t kHeadSlots = 16;

// Writers into space the caller has grown by the event's bound; each
// returns the position after what it wrote.
char* Put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

char* PutInt(char* p, int64_t v) {
  constexpr int kInt64Chars = 20;  // "-9223372036854775808".
  return std::to_chars(p, p + kInt64Chars, v).ptr;
}

// "good_within_<ms>ms" for a latency objective. Whole milliseconds print as
// integers (the 1,000 ms default is "good_within_1000ms"); fractions print
// shortest round trip, so distinct objectives never share a column name.
std::string ObjectiveColumn(MicroSecs objective) {
  const std::string ms = objective % kMicrosPerMilli == 0
                             ? std::to_string(objective / kMicrosPerMilli)
                             : JsonWriter::FormatDouble(MicrosToMillis(objective));
  return "good_within_" + ms + "ms";
}

}  // namespace

std::string ChromeTraceJson(const SpanLog& spans) {
  const ExportPlan plan = PlanExport(spans);
  std::string out;
  out.reserve(plan.bytes);
  out.append(R"({"displayTimeUnit":"ms","traceEvents":[)");
  for (const int group : plan.groups) {
    out.append(R"({"ph":"M","pid":)");
    out.append(std::to_string(group));
    out.append(R"(,"name":"process_name","args":{"name":)");
    JsonWriter::AppendEscaped(&out, TrackGroupName(group));
    out.append("}},");
  }
  // Spans arrive group by group, so the table of heads by kind is refilled
  // once per group.
  std::vector<std::string> heads(kHeadSlots);
  int heads_group = plan.groups.empty() ? 0 : plan.groups.front();
  // A status or a double, formatted by JsonWriter's rules.
  std::string text;
  size_t used = out.size();
  for (const SpanIndex i : plan.order) {
    const Span& s = spans[i];
    if (s.group != heads_group) {
      for (std::string& head : heads) {
        head.clear();
      }
      heads_group = s.group;
    }
    out.resize(used + EventBound(s));
    char* p = out.data() + used;
    const auto slot = static_cast<size_t>(s.kind);
    if (slot < heads.size()) {
      if (heads[slot].empty()) {
        heads[slot] = EventHead(s.group, s.kind);
      }
      p = Put(p, heads[slot]);
    } else {
      p = Put(p, EventHead(s.group, s.kind));
    }
    p = PutInt(p, s.track);
    p = Put(p, R"(,"ts":)");
    p = PutInt(p, s.start);
    p = Put(p, R"(,"dur":)");
    p = PutInt(p, s.duration);
    p = Put(p, R"(,"args":{)");
    // Each arg after the first is preceded by a comma.
    const char* const args_at = p;
    const auto arg = [&](std::string_view quoted_key) {
      if (p != args_at) {
        *p++ = ',';
      }
      p = Put(p, quoted_key);
      *p++ = ':';
    };
    if (s.req_idx >= 0) {
      arg(R"("req")");
      p = PutInt(p, s.req_idx);
      arg(R"("attempt")");
      p = PutInt(p, s.attempt);
    }
    if (s.sandbox_id >= 0) {
      arg(R"("sandbox")");
      p = PutInt(p, s.sandbox_id);
    }
    if (s.status != nullptr && s.status[0] != '\0') {
      arg(R"("status")");
      text.clear();
      JsonWriter::AppendEscaped(&text, s.status);
      p = Put(p, text);
    }
    if (s.cold) {
      arg(R"("cold")");
      p = Put(p, "true");
    }
    if (s.terminal) {
      arg(R"("billed_us")");
      p = PutInt(p, s.billed_micros);
      arg(R"("billed_usd")");
      text.clear();
      JsonWriter::AppendDouble(&text, s.billed_usd);
      p = Put(p, text);
    }
    p = Put(p, "}},");
    used = static_cast<size_t>(p - out.data());
  }
  out.resize(used);
  // Every event ended with a comma; the last one closes the array instead.
  if (out.back() == ',') {
    out.pop_back();
  }
  out.append("]}");
  return out;
}

std::string TimeSeriesJsonl(const TimeSeries& series) {
  std::string out;
  const MicroSecs width = series.window();
  for (size_t i = 0; i < series.window_count(); ++i) {
    const WindowStats& win = series.window_at(i);
    JsonWriter w;
    w.BeginObject();
    w.KV("window", static_cast<int64_t>(i));
    w.KV("start_us", static_cast<MicroSecs>(i) * width);
    w.KV("end_us", static_cast<MicroSecs>(i + 1) * width);
    w.KV("arrivals", win.arrivals);
    w.KV("dispatches", win.dispatches);
    w.KV("cold_starts", win.cold_starts);
    w.KV("completions", win.completions);
    w.KV("failures", win.failures);
    w.KV("retries", win.retries);
    w.KV("cold_start_rate",
         win.dispatches > 0 ? static_cast<double>(win.cold_starts) /
                                  static_cast<double>(win.dispatches)
                            : 0.0);
    w.KV("p50_ms", win.latency_us.Quantile(0.50) / 1'000.0);
    w.KV("p95_ms", win.latency_us.Quantile(0.95) / 1'000.0);
    w.KV("p99_ms", win.latency_us.Quantile(0.99) / 1'000.0);
    w.KV("latency_samples", win.latency_us.count());
    w.KV("latency_rejected", win.latency_us.rejected());
    w.KV("billed_usd", win.billed_usd);
    w.KV("waste_usd_total", win.WasteTotal());
    for (int k = 0; k < kWasteKindCount; ++k) {
      w.KV(std::string("waste_usd_") + WasteKindName(static_cast<WasteKind>(k)),
           win.waste_usd[k]);
    }
    w.KV("net_bytes", win.net_bytes);
    w.KV("net_usd", win.net_usd);
    w.KV("queue_depth_max", win.queue_depth_max);
    w.KV("avg_concurrency",
         static_cast<double>(win.busy_micros) / static_cast<double>(width));
    for (size_t obj = 0; obj < series.objective_count(); ++obj) {
      w.KV(ObjectiveColumn(series.objective_at(obj)), win.good[obj]);
    }
    w.EndObject();
    out += w.str();
    out.push_back('\n');
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  // Crash-safe: readers of run artifacts never see a half-written file.
  try {
    WriteFileAtomic(path, content);
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

}  // namespace faascost
