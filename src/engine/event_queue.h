// The event order of the fleet and workflow engines: a cursor over a
// time-sorted input merged with a min-heap of scheduled events, popped in
// (time, seq) order. Each engine assigns its own seqs, so equal-time events
// pop in seq order whatever the heap's layout. Input events are built from
// their index when the cursor reaches them: only scheduled events take
// memory.
//
// PlatformSim keeps its own time-only queue: its pinned results depend on
// equal-time events popping in heap-layout order.

#ifndef FAASCOST_ENGINE_EVENT_QUEUE_H_
#define FAASCOST_ENGINE_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace faascost {

// `Event` has members `MicroSecs time` and `int64_t seq`. `Input` holds
// `size()` time-sorted events, the i-th built by `At(i)`.
template <typename Event, typename Input>
class StreamedEventQueue {
 public:
  StreamedEventQueue() = default;
  explicit StreamedEventQueue(Input input) : input_(std::move(input)) {}

  bool empty() const { return next_ == input_.size() && heap_.empty(); }
  // Events still to pop: the unread input plus the heap.
  size_t size() const { return input_.size() - next_ + heap_.size(); }
  // Time of the next Pop(). Requires !empty(), as Pop() does.
  MicroSecs next_time() const {
    return InputFirst() ? input_.At(next_).time : heap_.front().time;
  }

  Event Pop() {
    if (InputFirst()) {
      return input_.At(next_++);
    }
    std::pop_heap(heap_.begin(), heap_.end(), After());
    Event e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }

  void Push(Event e) {
    heap_.push_back(std::move(e));
    std::push_heap(heap_.begin(), heap_.end(), After());
  }

  // Index of the next input event, saved and restored by checkpoints.
  size_t cursor() const { return next_; }
  void set_cursor(size_t next) { next_ = next; }

  // The scheduled events in heap-layout order, for order-free scans.
  const std::vector<Event>& heap() const { return heap_; }

  // Walks the heap with a state archiver (src/integrity/archive.h) as the
  // array `key` in ascending (time, seq) order, a layout-free form that is
  // itself a valid heap; `fields(ar, e)` walks one event. Loading sorts
  // again, so reordered entries still restore a valid heap.
  template <typename Ar, typename Fields>
  void ArchiveHeap(Ar& ar, std::string_view key, Fields fields) {
    std::vector<Event> sorted;
    if constexpr (!Ar::kLoading) {
      sorted = heap_;
      std::sort(sorted.begin(), sorted.end(), Before());
    }
    sorted.resize(ar.BeginArray(key, sorted.size()));
    for (Event& e : sorted) {
      ar.BeginElem();
      fields(ar, e);
      ar.EndElem();
    }
    ar.EndArray();
    if constexpr (Ar::kLoading) {
      std::sort(sorted.begin(), sorted.end(), Before());
      heap_ = std::move(sorted);
    }
  }

 private:
  // Comparators are types, not function pointers, so the heap and sort
  // algorithms inline them.
  struct Before {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };
  // std heaps keep the greatest element first.
  struct After {
    bool operator()(const Event& a, const Event& b) const { return Before()(b, a); }
  };

  bool InputFirst() const {
    return next_ < input_.size() &&
           (heap_.empty() || Before()(input_.At(next_), heap_.front()));
  }

  Input input_;
  size_t next_ = 0;
  std::vector<Event> heap_;
};

}  // namespace faascost

#endif  // FAASCOST_ENGINE_EVENT_QUEUE_H_
