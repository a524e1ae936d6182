// AppendLog<T>: an append-only sequence whose elements live in fixed chunks
// that are never reallocated. An append never copies or moves a stored
// element, so references and pointers to elements stay valid as the log
// grows, and a long log never holds two copies of itself the way a doubling
// std::vector does mid-growth. A chunk is raw storage: only appended slots
// are written, so the unused tail of the last chunk is never touched.
//
// Indexing is a shift and a mask. Iterators are random access; like
// std::vector's, an append invalidates them (the chunk table may move), but
// not references. clear() keeps the chunks for reuse, as std::vector::clear
// keeps its capacity.

#ifndef FAASCOST_COMMON_APPEND_LOG_H_
#define FAASCOST_COMMON_APPEND_LOG_H_

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace faascost {

template <typename T>
class AppendLog {
  template <bool kConst>
  class Iter;

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  // Elements per chunk: the largest power of two whose chunk fits in 1 MiB.
  static constexpr size_t kChunkElems =
      std::bit_floor(std::max<size_t>(1, (size_t{1} << 20) / sizeof(T)));

  AppendLog() = default;
  // Delegates, so an element copy that throws still runs the destructor.
  AppendLog(const AppendLog& other) : AppendLog() { AppendAll(other); }
  AppendLog(AppendLog&& other) noexcept
      : chunks_(std::exchange(other.chunks_, {})), size_(std::exchange(other.size_, 0)) {}
  AppendLog& operator=(const AppendLog& other) {
    if (this != &other) {
      clear();
      AppendAll(other);
    }
    return *this;
  }
  AppendLog& operator=(AppendLog&& other) noexcept {
    if (this != &other) {
      Release();
      chunks_ = std::exchange(other.chunks_, {});
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~AppendLog() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return *Slot(i); }
  const T& operator[](size_t i) const { return *Slot(i); }
  T& back() { return *Slot(size_ - 1); }
  const T& back() const { return *Slot(size_ - 1); }

  iterator begin() { return iterator(chunks_.data(), 0); }
  iterator end() { return iterator(chunks_.data(), size_); }
  const_iterator begin() const { return const_iterator(chunks_.data(), 0); }
  const_iterator end() const { return const_iterator(chunks_.data(), size_); }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if ((size_ & kMask) == 0 && (size_ >> kShift) == chunks_.size()) {
      AddChunk();
    }
    T* slot = Slot(size_);
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  // Destroys every element; the chunks stay allocated for the next appends.
  void clear() noexcept {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      std::destroy(begin(), end());
    }
    size_ = 0;
  }

 private:
  static constexpr int kShift = std::countr_zero(kChunkElems);
  static constexpr size_t kMask = kChunkElems - 1;

  T* Slot(size_t i) const { return chunks_[i >> kShift] + (i & kMask); }

  void AddChunk() {
    T* chunk = std::allocator<T>().allocate(kChunkElems);
    try {
      chunks_.push_back(chunk);
    } catch (...) {
      std::allocator<T>().deallocate(chunk, kChunkElems);
      throw;
    }
  }

  // Requires empty(): copies `other`'s elements in order.
  void AppendAll(const AppendLog& other) {
    for (const T& value : other) {
      emplace_back(value);
    }
  }

  void Release() noexcept {
    clear();
    for (T* chunk : chunks_) {
      std::allocator<T>().deallocate(chunk, kChunkElems);
    }
    chunks_.clear();
  }

  std::vector<T*> chunks_;
  size_t size_ = 0;
};

template <typename T>
template <bool kConst>
class AppendLog<T>::Iter {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using iterator_concept = std::random_access_iterator_tag;
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = std::conditional_t<kConst, const T*, T*>;
  using reference = std::conditional_t<kConst, const T&, T&>;

  Iter() = default;
  Iter(T* const* chunks, size_t index) : chunks_(chunks), index_(index) {}
  // A mutable iterator converts to a const one.
  template <bool kOther>
    requires(kConst && !kOther)
  Iter(const Iter<kOther>& other) : chunks_(other.chunks_), index_(other.index_) {}

  reference operator*() const { return chunks_[index_ >> kShift][index_ & kMask]; }
  pointer operator->() const { return std::addressof(**this); }
  reference operator[](difference_type n) const { return *(*this + n); }

  Iter& operator++() {
    ++index_;
    return *this;
  }
  Iter operator++(int) {
    Iter before = *this;
    ++index_;
    return before;
  }
  Iter& operator--() {
    --index_;
    return *this;
  }
  Iter operator--(int) {
    Iter before = *this;
    --index_;
    return before;
  }
  Iter& operator+=(difference_type n) {
    index_ = static_cast<size_t>(static_cast<difference_type>(index_) + n);
    return *this;
  }
  Iter& operator-=(difference_type n) { return *this += -n; }
  friend Iter operator+(Iter it, difference_type n) { return it += n; }
  friend Iter operator+(difference_type n, Iter it) { return it += n; }
  friend Iter operator-(Iter it, difference_type n) { return it -= n; }
  friend difference_type operator-(const Iter& a, const Iter& b) {
    return static_cast<difference_type>(a.index_) - static_cast<difference_type>(b.index_);
  }
  friend bool operator==(const Iter& a, const Iter& b) { return a.index_ == b.index_; }
  friend std::strong_ordering operator<=>(const Iter& a, const Iter& b) {
    return a.index_ <=> b.index_;
  }

 private:
  friend class Iter<!kConst>;

  T* const* chunks_ = nullptr;
  size_t index_ = 0;
};

}  // namespace faascost

#endif  // FAASCOST_COMMON_APPEND_LOG_H_
