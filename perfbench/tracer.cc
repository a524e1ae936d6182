#include "tracer.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/wallclock.h"

namespace faascost::perfbench {

int64_t PeakRssKb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<int64_t>(usage.ru_maxrss);  // KiB on Linux.
}

LayerTracer::LayerTracer(bool traced) : traced_(traced), origin_ns_(MonotonicNanos()) {
  if (traced_) {
    spans_.reserve(64);
    spans_.push_back(SpanRecord{"pipeline", 0, -1, -1, 0});
    open_.push_back(0);
  }
}

int64_t LayerTracer::Now() const { return MonotonicNanos() - origin_ns_; }

LayerTracer::Scope LayerTracer::Open(const char* name) {
  if (!traced_) {
    return Scope(nullptr, -1);
  }
  const int64_t entered = Now();
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(SpanRecord{name, 0, -1, parent, 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  const int64_t start = Now();
  spans_[static_cast<size_t>(index)].start_ns = start;
  overhead_ns_ += start - entered;
  return Scope(this, index);
}

void LayerTracer::Close(int index) {
  const int64_t end = Now();
  SpanRecord& span = spans_[static_cast<size_t>(index)];
  span.end_ns = end;
  span.rss_kb = PeakRssKb();
  open_.pop_back();  // Scopes close in reverse order of opening.
  overhead_ns_ += Now() - end;
}

LayerTracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->Close(index_);
  }
}

void LayerTracer::MarkRunEntered() { run_entered_ns_ = Now(); }

int64_t LayerTracer::setup_ns() const {
  if (setup_samples_.empty()) {
    return run_entered_ns_;
  }
  std::vector<int64_t> samples = setup_samples_;
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

void LayerTracer::Finish() {
  end_ns_ = Now();
  if (traced_) {
    spans_[0].end_ns = end_ns_;
    spans_[0].rss_kb = PeakRssKb();
    open_.clear();
  }
}

}  // namespace faascost::perfbench
