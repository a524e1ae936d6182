// AppendLog: elements in fixed chunks that never move. Checked against a
// std::vector reference across several chunk boundaries, with an element
// type that owns heap memory and counts its live instances, so a missed
// destructor or a shallow copy shows.

#include "src/common/append_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace faascost {
namespace {

struct Tracked {
  explicit Tracked(int64_t v) : value(v), text("value " + std::to_string(v) + " of the log") {
    ++live;
  }
  Tracked(const Tracked& other) : value(other.value), text(other.text) { ++live; }
  ~Tracked() { --live; }

  bool operator==(const Tracked& other) const {
    return value == other.value && text == other.text;
  }

  int64_t value;
  std::string text;

  static inline int64_t live = 0;
};

using Log = AppendLog<Tracked>;
constexpr size_t kChunk = Log::kChunkElems;

static_assert(std::random_access_iterator<Log::iterator>);
static_assert(std::random_access_iterator<Log::const_iterator>);
static_assert(std::has_single_bit(kChunk));
static_assert(kChunk * sizeof(Tracked) <= (size_t{1} << 20));
static_assert(2 * kChunk * sizeof(Tracked) > (size_t{1} << 20));

// Three full chunks and part of a fourth.
constexpr size_t kCount = 3 * kChunk + kChunk / 2;

std::vector<Tracked> Reference(size_t count) {
  std::vector<Tracked> ref;
  for (size_t i = 0; i < count; ++i) {
    ref.emplace_back(static_cast<int64_t>(i));
  }
  return ref;
}

class AppendLogTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracked::live = 0; }
  void TearDown() override { EXPECT_EQ(Tracked::live, 0); }
};

TEST_F(AppendLogTest, AgreesWithAVectorAcrossChunkBoundaries) {
  const std::vector<Tracked> ref = Reference(kCount);
  Log log;
  EXPECT_TRUE(log.empty());
  for (size_t i = 0; i < kCount; ++i) {
    if (i % 2 == 0) {
      log.push_back(ref[i]);
    } else {
      EXPECT_EQ(log.emplace_back(static_cast<int64_t>(i)), ref[i]);
    }
    ASSERT_EQ(log.back(), ref[i]);
  }
  ASSERT_EQ(log.size(), kCount);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(Tracked::live, static_cast<int64_t>(2 * kCount));

  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(log[i], ref[i]) << i;
  }
  size_t i = 0;
  for (const Tracked& t : log) {
    ASSERT_EQ(t, ref[i++]);
  }
  EXPECT_EQ(i, kCount);
  const Log& view = log;
  EXPECT_TRUE(std::equal(view.begin(), view.end(), ref.begin(), ref.end()));
  EXPECT_EQ(view.end() - view.begin(), static_cast<std::ptrdiff_t>(kCount));
  // Random access straddling a chunk boundary, both ways.
  Log::const_iterator it = view.begin() + static_cast<std::ptrdiff_t>(kChunk - 1);
  EXPECT_EQ(*it, ref[kChunk - 1]);
  EXPECT_EQ(*++it, ref[kChunk]);
  EXPECT_EQ(it[-1], ref[kChunk - 1]);
  EXPECT_EQ((it - 2)->value, ref[kChunk - 2].value);
  EXPECT_EQ(std::prev(view.end())->value, ref.back().value);
  // A mutable iterator writes through and converts to a const one.
  Log::iterator w = log.begin() + static_cast<std::ptrdiff_t>(2 * kChunk);
  w->value = -1;
  EXPECT_EQ(log[2 * kChunk].value, -1);
  EXPECT_TRUE(Log::const_iterator(w) == view.begin() + static_cast<std::ptrdiff_t>(2 * kChunk));
}

TEST_F(AppendLogTest, EarlierElementsKeepTheirAddressesAsTheLogGrows) {
  Log log;
  std::vector<const Tracked*> where;
  for (size_t i = 0; i < kCount; ++i) {
    where.push_back(&log.emplace_back(static_cast<int64_t>(i)));
  }
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(&log[i], where[i]) << i;
    ASSERT_EQ(log[i].value, static_cast<int64_t>(i));
  }
}

TEST_F(AppendLogTest, CopyIsDeepAndEqual) {
  Log log;
  for (size_t i = 0; i < kCount; ++i) {
    log.emplace_back(static_cast<int64_t>(i));
  }
  Log copy = log;
  ASSERT_EQ(copy.size(), log.size());
  EXPECT_EQ(Tracked::live, static_cast<int64_t>(2 * kCount));
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), log.begin(), log.end()));
  EXPECT_NE(&copy[0], &log[0]);
  EXPECT_NE(&copy.back(), &log.back());
  copy[kChunk].text = "changed";
  copy.emplace_back(-1);
  EXPECT_EQ(log[kChunk].text, Reference(kChunk + 1).back().text);
  EXPECT_EQ(log.size(), kCount);

  // Assignment replaces the target's elements, reusing its chunks.
  Log small;
  small.emplace_back(7);
  small = log;
  EXPECT_TRUE(std::equal(small.begin(), small.end(), log.begin(), log.end()));
  const Log& alias = small;
  small = alias;  // Self-assignment keeps the elements.
  EXPECT_EQ(small.size(), kCount);
  EXPECT_EQ(small.back(), log.back());
}

TEST_F(AppendLogTest, MoveEmptiesItsSourceAndKeepsTheElementsInPlace) {
  Log log;
  for (size_t i = 0; i < kCount; ++i) {
    log.emplace_back(static_cast<int64_t>(i));
  }
  const Tracked* first = &log[0];
  const Tracked* last = &log.back();

  // A moved-from log is empty.
  Log moved = std::move(log);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0U);
  EXPECT_EQ(log.begin(), log.end());
  ASSERT_EQ(moved.size(), kCount);
  EXPECT_EQ(&moved[0], first);
  EXPECT_EQ(&moved.back(), last);
  EXPECT_EQ(Tracked::live, static_cast<int64_t>(kCount));

  Log target;
  target.emplace_back(-1);
  target = std::move(moved);
  EXPECT_TRUE(moved.empty());
  ASSERT_EQ(target.size(), kCount);
  EXPECT_EQ(&target[0], first);
  EXPECT_EQ(Tracked::live, static_cast<int64_t>(kCount));

  // A moved-from log is usable again.
  moved.emplace_back(3);
  EXPECT_EQ(moved.size(), 1U);
  EXPECT_EQ(moved.back().value, 3);
}

TEST_F(AppendLogTest, ClearThenRefillReusesTheSameChunks) {
  Log log;
  for (size_t i = 0; i < kCount; ++i) {
    log.emplace_back(static_cast<int64_t>(i));
  }
  std::vector<const Tracked*> chunk_starts;
  for (size_t c = 0; c * kChunk < kCount; ++c) {
    chunk_starts.push_back(&log[c * kChunk]);
  }
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(Tracked::live, 0);

  for (size_t i = 0; i < kCount; ++i) {
    log.emplace_back(static_cast<int64_t>(kCount - i));
  }
  for (size_t c = 0; c < chunk_starts.size(); ++c) {
    EXPECT_EQ(&log[c * kChunk], chunk_starts[c]) << "chunk " << c;
  }
  EXPECT_EQ(log[0].value, static_cast<int64_t>(kCount));
  EXPECT_EQ(log.back().value, 1);
}

}  // namespace
}  // namespace faascost
