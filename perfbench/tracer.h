// Host-time spans around the benchmark's calls into each faascost layer.
//
// Every layer is timed from outside: the workload code wraps each public
// call it makes (TraceGenerator::Generate, FleetEngine::RunToEnd, ...) in a
// span named "<layer>.<call>". Untraced, the tracer keeps only the marks
// the end-to-end metrics need — workload start, the moment the engine's run
// call is entered (or the set-up samples, for a workload that builds its
// set-up several times), and the end of the pipeline — so an untraced run
// pays a few clock reads. Traced, each span records its start, end, parent
// and the process's peak RSS (getrusage ru_maxrss) after the call, in
// memory; the caller writes them out when the run ends. The tracer also
// times its own bookkeeping, so the tracing overhead is measured rather
// than assumed.
//
// Host time comes from the repository's wall-clock shim
// (src/common/wallclock.h); it never feeds the simulation.

#ifndef FAASCOST_PERFBENCH_TRACER_H_
#define FAASCOST_PERFBENCH_TRACER_H_

#include <cstdint>
#include <vector>

namespace faascost::perfbench {

// Peak resident set size of this process so far, in KiB; 0 if getrusage
// fails.
int64_t PeakRssKb();

class LayerTracer {
 public:
  struct SpanRecord {
    const char* name = "";  // Static string: "<layer>.<call>".
    int64_t start_ns = 0;   // Relative to the workload start.
    int64_t end_ns = 0;
    int parent = -1;        // Index into spans(); -1 for the root.
    int64_t rss_kb = 0;     // Peak RSS after the call.
  };

  // Closes its span when it goes out of scope, exceptions included.
  class [[nodiscard]] Scope {
   public:
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    friend class LayerTracer;
    Scope(LayerTracer* tracer, int index) : tracer_(tracer), index_(index) {}
    LayerTracer* tracer_;  // Null when untraced.
    int index_;
  };

  // Marks the workload start; traced, also opens the root span "pipeline".
  explicit LayerTracer(bool traced);

  Scope Open(const char* name);

  // Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  auto Time(const char* name, Fn&& fn) {
    const Scope scope = Open(name);
    return fn();
  }

  // Runs `fn`, one complete set-up of the workload, and keeps its host time
  // as a set-up sample. A workload whose set-up is too short to time once
  // steadily builds it several times this way.
  template <typename Fn>
  void SampleSetup(Fn&& fn) {
    const int64_t start = Now();
    fn();
    setup_samples_.push_back(Now() - start);
  }

  // The engine's run call is about to be entered: everything before it is
  // set-up (input generation, digests, config, Start).
  void MarkRunEntered();
  // End of the pipeline; closes the root span.
  void Finish();
  // Adds host time the caller spent on trace bookkeeping (span export).
  void AddOverhead(int64_t ns) { overhead_ns_ += ns; }

  // Host time of the set-up: the median sample if the workload sampled it,
  // else from the workload start until the run call was entered.
  int64_t setup_ns() const;
  int64_t pipeline_ns() const { return end_ns_; }
  int64_t overhead_ns() const { return overhead_ns_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  void Close(int index);
  int64_t Now() const;

  bool traced_;
  int64_t origin_ns_;
  int64_t run_entered_ns_ = -1;
  int64_t end_ns_ = -1;
  int64_t overhead_ns_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // Stack of open span indices.
  std::vector<int64_t> setup_samples_;
};

}  // namespace faascost::perfbench

#endif  // FAASCOST_PERFBENCH_TRACER_H_
