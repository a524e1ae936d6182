// StreamedEventQueue: the (time, seq) order across the input cursor and the
// heap, and the canonical heap archive the fleet checkpoint is built on.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/engine/event_queue.h"
#include "src/integrity/archive.h"
#include "src/integrity/digest.h"

namespace faascost {
namespace {

struct Ev {
  MicroSecs time = 0;
  int64_t seq = 0;
};

// Input event i at times[i], with seq i.
struct Times {
  std::vector<MicroSecs> times;

  size_t size() const { return times.size(); }
  Ev At(size_t i) const { return {times[i], static_cast<int64_t>(i)}; }
};

using Queue = StreamedEventQueue<Ev, Times>;

std::vector<std::pair<MicroSecs, int64_t>> Drain(Queue& q) {
  std::vector<std::pair<MicroSecs, int64_t>> order;
  while (!q.empty()) {
    const MicroSecs next = q.next_time();
    const Ev e = q.Pop();
    EXPECT_EQ(e.time, next);
    order.emplace_back(e.time, e.seq);
  }
  return order;
}

template <typename Ar>
void EvFields(Ar& ar, Ev& e) {
  ar.Field("t", e.time);
  ar.Field("seq", e.seq);
}

TEST(StreamedEventQueue, PopsInTimeThenSeqOrderAcrossInputAndHeap) {
  Queue q(Times{{0, 10, 10, 20}});
  // At t=10 the heap's seq 0 beats the input's seqs 1 and 2, which beat
  // the heap's seq 7.
  q.Push({10, 7});
  q.Push({5, 9});
  q.Push({10, 0});
  q.Push({30, 4});
  EXPECT_EQ(q.size(), 8U);
  EXPECT_EQ(Drain(q), (std::vector<std::pair<MicroSecs, int64_t>>{
                          {0, 0}, {5, 9}, {10, 0}, {10, 1}, {10, 2}, {10, 7}, {20, 3}, {30, 4}}));
  EXPECT_EQ(q.cursor(), 4U);
  EXPECT_EQ(q.size(), 0U);
}

TEST(StreamedEventQueue, ResumesFromACursor) {
  Queue q(Times{{0, 10, 20}});
  q.set_cursor(2);
  q.Push({15, 5});
  EXPECT_EQ(Drain(q), (std::vector<std::pair<MicroSecs, int64_t>>{{15, 5}, {20, 2}}));
}

// Saved in ascending (time, seq) order whatever the push order, so equal
// queues save and digest alike; a reordered array loads back to the same
// pop order.
TEST(StreamedEventQueue, HeapArchiveIsCanonical) {
  const std::vector<Ev> events = {{40, 3}, {10, 8}, {10, 2}, {25, 6}, {5, 1}};
  Queue forward;
  Queue backward;
  for (size_t i = 0; i < events.size(); ++i) {
    forward.Push(events[i]);
    backward.Push(events[events.size() - 1 - i]);
  }

  const auto save = [](Queue& q) {
    JsonWriter w;
    Saver ar(&w);
    w.BeginObject();
    q.ArchiveHeap(ar, "heap", EvFields<Saver>);
    w.EndObject();
    return w.str();
  };
  const auto digest = [](Queue& q) {
    StateDigest d;
    Digester ar(&d);
    q.ArchiveHeap(ar, "heap", EvFields<Digester>);
    return d.value();
  };
  const std::string saved = save(forward);
  EXPECT_EQ(saved, save(backward));
  EXPECT_EQ(digest(forward), digest(backward));

  const JsonValue doc = ParseJson(saved);
  std::vector<JsonValue> items = doc.At("heap").GetArray();
  std::vector<MicroSecs> times;
  for (const JsonValue& item : items) {
    times.push_back(item.At("t").GetInt64());
  }
  EXPECT_EQ(times, (std::vector<MicroSecs>{5, 10, 10, 25, 40}));

  std::swap(items.front(), items.back());
  const JsonValue reordered =
      JsonValue::MakeObject({{"heap", JsonValue::MakeArray(std::move(items))}});
  Queue loaded;
  Loader ar(&reordered);
  loaded.ArchiveHeap(ar, "heap", EvFields<Loader>);
  EXPECT_EQ(save(loaded), saved);
  EXPECT_EQ(Drain(loaded), Drain(forward));
}

}  // namespace
}  // namespace faascost
