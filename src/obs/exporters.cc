#include "src/obs/exporters.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "src/common/fileio.h"
#include "src/common/json_writer.h"

namespace faascost {

namespace {

// Sort key of one span: export order is (group, track, start, longer
// first), which keeps ts monotone per (pid, tid) track and puts enclosing
// spans before equal-start children. Sorting these keys stably keeps exact
// ties in emission order, the order `index` records, so the spans are
// ordered without being copied.
struct SpanKey {
  int64_t track;
  MicroSecs start;
  MicroSecs duration;
  size_t index;
  int group;
};

bool KeyBefore(const SpanKey& a, const SpanKey& b) {
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

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
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
  std::vector<SpanKey> keys;
  keys.reserve(spans.size());
  size_t capacity = kDocumentBytes;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    keys.push_back({s.track, s.start, s.duration, i, s.group});
    capacity += kEventBytes + (s.status != nullptr ? 6 * std::strlen(s.status) : 0);
  }
  std::stable_sort(keys.begin(), keys.end(), KeyBefore);
  // Sorted keys visit the track groups in ascending order.
  std::vector<int> groups;
  for (const SpanKey& key : keys) {
    if (groups.empty() || groups.back() != key.group) {
      groups.push_back(key.group);
    }
  }

  std::string out;
  out.reserve(capacity + kMetadataBytes * groups.size());
  out.append(R"({"displayTimeUnit":"ms","traceEvents":[)");
  for (const int group : groups) {
    out.append(R"({"ph":"M","pid":)");
    AppendInt(&out, group);
    out.append(R"(,"name":"process_name","args":{"name":)");
    JsonWriter::AppendEscaped(&out, TrackGroupName(group));
    out.append("}},");
  }
  // Keys arrive group by group, so the table of heads by kind is refilled
  // once per group.
  std::vector<std::string> heads(kHeadSlots);
  int heads_group = groups.empty() ? 0 : groups.front();
  for (const SpanKey& key : keys) {
    const Span& s = spans[key.index];
    if (s.group != heads_group) {
      for (std::string& head : heads) {
        head.clear();
      }
      heads_group = s.group;
    }
    const auto slot = static_cast<size_t>(s.kind);
    if (slot < heads.size()) {
      if (heads[slot].empty()) {
        heads[slot] = EventHead(s.group, s.kind);
      }
      out.append(heads[slot]);
    } else {
      out.append(EventHead(s.group, s.kind));
    }
    AppendInt(&out, s.track);
    out.append(R"(,"ts":)");
    AppendInt(&out, s.start);
    out.append(R"(,"dur":)");
    AppendInt(&out, s.duration);
    out.append(R"(,"args":{)");
    // Each arg after the first is preceded by a comma.
    const size_t args_at = out.size();
    const auto arg = [&](std::string_view quoted_key) {
      if (out.size() != args_at) {
        out.push_back(',');
      }
      out.append(quoted_key);
      out.push_back(':');
    };
    if (s.req_idx >= 0) {
      arg(R"("req")");
      AppendInt(&out, s.req_idx);
      arg(R"("attempt")");
      AppendInt(&out, s.attempt);
    }
    if (s.sandbox_id >= 0) {
      arg(R"("sandbox")");
      AppendInt(&out, s.sandbox_id);
    }
    if (s.status != nullptr && s.status[0] != '\0') {
      arg(R"("status")");
      JsonWriter::AppendEscaped(&out, s.status);
    }
    if (s.cold) {
      arg(R"("cold")");
      out.append("true");
    }
    if (s.terminal) {
      arg(R"("billed_us")");
      AppendInt(&out, s.billed_micros);
      arg(R"("billed_usd")");
      JsonWriter::AppendDouble(&out, s.billed_usd);
    }
    out.append("}},");
  }
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
