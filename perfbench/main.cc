// faascost_e2e: runs one benchmark workload once, in this process, and
// prints one JSON object with its host timings, peak RSS, spans (when
// traced) and simulated outputs. run.py starts one process per pipeline
// run, so every run starts from a fresh heap and its own peak RSS.
//
//   faascost_e2e --workload fleet_chaos --seed 7 [--trace]
//
// Exit codes: 0 ok; 1 a reconciliation gate, audit or config check failed
// (the JSON carries the error); 2 usage.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/wallclock.h"
#include "tracer.h"
#include "workloads.h"

namespace faascost::perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadOutputs (*run)(uint64_t seed, LayerTracer& tracer);
};

constexpr Workload kWorkloads[] = {
    {"fleet_chaos", RunFleetChaos},
    {"fleet_observed", RunFleetObserved},
    {"platform_topdown", RunPlatformTopDown},
    {"workflow_fanout", RunWorkflowFanOut},
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void WriteSpans(JsonWriter& w, const LayerTracer& tracer) {
  w.BeginArray();
  for (const LayerTracer::SpanRecord& s : tracer.spans()) {
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("start_ns", s.start_ns);
    w.KV("end_ns", s.end_ns);
    w.KV("parent", s.parent);
    w.KV("rss_kb", s.rss_kb);
    w.EndObject();
  }
  w.EndArray();
}

void WriteCounts(JsonWriter& w, const std::vector<std::pair<std::string, int64_t>>& counts) {
  w.BeginObject();
  for (const auto& [name, value] : counts) {
    w.KV(name, value);
  }
  w.EndObject();
}

int Usage() {
  std::fprintf(stderr,
               "usage: faascost_e2e --workload NAME --seed N [--trace]\n"
               "workloads: fleet_chaos fleet_observed platform_topdown workflow_fanout\n");
  return 2;
}

// Parses a decimal seed that fits in 64 bits; false on anything else.
bool ParseSeed(const char* text, uint64_t* seed) {
  if (text == nullptr || *text == '\0' || *text == '-') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) {
    return false;
  }
  *seed = static_cast<uint64_t>(v);
  return true;
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--trace") {
      traced = true;
    } else if (arg == "--workload" && value != nullptr) {
      for (const Workload& w : kWorkloads) {
        if (std::string_view(w.name) == value) {
          workload = &w;
        }
      }
      if (workload == nullptr) {
        std::fprintf(stderr, "faascost_e2e: unknown workload '%s'\n", value);
        return Usage();
      }
      ++i;
    } else if (arg == "--seed" && ParseSeed(value, &seed)) {
      have_seed = true;
      ++i;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || !have_seed) {
    return Usage();
  }

  LayerTracer tracer(traced);
  WorkloadOutputs out;
  std::string error;
  try {
    out = workload->run(seed, tracer);
  } catch (const std::exception& e) {
    error = e.what();
  }
  tracer.Finish();
  const int64_t peak_rss_kb = PeakRssKb();

  JsonWriter w;
  w.BeginObject();
  w.KV("workload", workload->name);
  w.KV("seed", seed);
  w.KV("ok", error.empty());
  w.KV("error", error);
  w.KV("work_units", out.work_units);
  w.KV("setup_ns", tracer.setup_ns());
  w.KV("pipeline_ns", tracer.pipeline_ns());
  w.KV("peak_rss_kb", peak_rss_kb);
  w.Key("counts");
  WriteCounts(w, out.counts);
  w.Key("usd");
  w.BeginObject();
  for (const auto& [name, value] : out.usd) {
    w.Key(name);
    w.BeginObject();
    w.KV("value", value);
    w.KV("bits", Hex(Bits(value)));
    w.EndObject();
  }
  w.EndObject();
  w.Key("engine_work");
  WriteCounts(w, out.engine_work);
  w.Key("digests");
  w.BeginObject();
  for (const auto& [name, value] : out.digests) {
    w.KV(name, Hex(value));
  }
  w.EndObject();
  // Serializing the spans is tracing work too; its time joins the overhead.
  const int64_t export_started = MonotonicNanos();
  w.Key("spans");
  WriteSpans(w, tracer);
  if (traced) {
    tracer.AddOverhead(MonotonicNanos() - export_started);
  }
  w.KV("trace_overhead_ns", tracer.overhead_ns());
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace faascost::perfbench

int main(int argc, char** argv) { return faascost::perfbench::Main(argc, argv); }
