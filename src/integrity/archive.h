// One state walker, three backends.
//
// Checkpoint save, checkpoint load, and canonical digest must agree on
// exactly which bits constitute simulator state — if they could drift apart,
// a checkpoint might silently omit a field the digest covers (resume
// diverges) or cover a field the digest ignores (divergence goes
// undetected). To make drift structurally impossible, every engine writes a
// single template:
//
//   template <typename Ar> void Archive(Ar& ar) {
//     ar.Field("now", now);
//     ar.Begin("breaker"); breaker.Archive(ar); ar.End();
//     ...
//   }
//
// and instantiates it with Saver (JsonWriter-backed), Loader
// (JsonValue-backed), or Digester (StateDigest-backed). A component with
// state of its own (Rng, CircuitBreaker, WindowedAutoscaler) walks its own
// members in a template of the same shape, which the engine's walk calls.
// Adding a field to a walker updates all three at once; forgetting one is
// impossible.
//
// Encoding choices:
//   - Doubles save/load as their IEEE-754 bit pattern (a JSON uint64), so a
//     round trip through the text checkpoint is exact. The digest mixes the
//     same bits.
//   - Loader looks fields up by key (not position), so field reordering in
//     the walker does not invalidate old checkpoints — only renames, removals
//     and additions do, and those bump the checkpoint version.
//   - Every Loader failure (missing key, wrong-typed value, out-of-range
//     integer) throws CheckpointError: a bad state blob is a malformed
//     artifact, reported like any other bad checkpoint.

#ifndef FAASCOST_INTEGRITY_ARCHIVE_H_
#define FAASCOST_INTEGRITY_ARCHIVE_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/checkpoint.h"
#include "src/integrity/digest.h"

namespace faascost {

class Saver {
 public:
  static constexpr bool kLoading = false;

  explicit Saver(JsonWriter* w) : w_(w) {}

  void Field(std::string_view key, uint64_t& v) { w_->KV(key, v); }
  void Field(std::string_view key, int64_t& v) { w_->KV(key, v); }
  void Field(std::string_view key, int& v) { w_->KV(key, static_cast<int64_t>(v)); }
  void Field(std::string_view key, bool& v) { w_->KV(key, v); }
  void Field(std::string_view key, double& v) {
    w_->KV(key, std::bit_cast<uint64_t>(v));
  }
  void Field(std::string_view key, std::string& v) {
    w_->KV(key, std::string_view(v));
  }

  void Begin(std::string_view key) {
    w_->Key(key);
    w_->BeginObject();
  }
  void End() { w_->EndObject(); }

  // Returns the element count the caller must iterate (its own `n` when
  // saving, the document's when loading).
  size_t BeginArray(std::string_view key, size_t n) {
    w_->Key(key);
    w_->BeginArray();
    return n;
  }
  void BeginElem() { w_->BeginObject(); }
  void EndElem() { w_->EndObject(); }
  void EndArray() { w_->EndArray(); }

  void I64Vec(std::string_view key, std::vector<int64_t>& v) {
    w_->Key(key);
    w_->BeginArray();
    for (const int64_t x : v) {
      w_->Value(x);
    }
    w_->EndArray();
  }

 private:
  JsonWriter* w_;
};

class Loader {
 public:
  static constexpr bool kLoading = true;

  explicit Loader(const JsonValue* root) { stack_.push_back({root, 0}); }

  void Field(std::string_view key, uint64_t& v) {
    v = Read(key, [](const JsonValue& j) { return j.GetUint64(); });
  }
  void Field(std::string_view key, int64_t& v) {
    v = Read(key, [](const JsonValue& j) { return j.GetInt64(); });
  }
  void Field(std::string_view key, int& v) {
    v = Read(key, [](const JsonValue& j) {
      const int64_t x = j.GetInt64();
      if (x < std::numeric_limits<int>::min() || x > std::numeric_limits<int>::max()) {
        throw std::runtime_error(std::to_string(x) + " is out of int range");
      }
      return static_cast<int>(x);
    });
  }
  void Field(std::string_view key, bool& v) {
    v = Read(key, [](const JsonValue& j) { return j.GetBool(); });
  }
  void Field(std::string_view key, double& v) {
    v = std::bit_cast<double>(Read(key, [](const JsonValue& j) { return j.GetUint64(); }));
  }
  void Field(std::string_view key, std::string& v) {
    v = Read(key, [](const JsonValue& j) { return j.GetString(); });
  }

  void Begin(std::string_view key) {
    const JsonValue* obj = Read(key, [](const JsonValue& j) {
      (void)j.GetObject();
      return &j;
    });
    stack_.push_back({obj, 0});
  }
  void End() { stack_.pop_back(); }

  size_t BeginArray(std::string_view key, size_t /*n*/) {
    const JsonValue* arr = Read(key, [](const JsonValue& j) {
      (void)j.GetArray();
      return &j;
    });
    stack_.push_back({arr, 0});
    return arr->GetArray().size();
  }
  // A non-object element has no keys, so its first Field reports the
  // missing key.
  void BeginElem() {
    Frame& f = stack_.back();
    stack_.push_back({&f.node->GetArray().at(f.index), 0});
  }
  void EndElem() {
    stack_.pop_back();
    ++stack_.back().index;
  }
  void EndArray() { stack_.pop_back(); }

  void I64Vec(std::string_view key, std::vector<int64_t>& v) {
    v = Read(key, [](const JsonValue& j) {
      std::vector<int64_t> out;
      out.reserve(j.GetArray().size());
      for (const JsonValue& item : j.GetArray()) {
        out.push_back(item.GetInt64());
      }
      return out;
    });
  }

 private:
  struct Frame {
    const JsonValue* node;
    size_t index;
  };

  const JsonValue& Cur() const { return *stack_.back().node; }

  // Looks `key` up in the current object and converts it with `get`. A
  // missing key or a wrong-typed value is a malformed artifact, so every
  // failure surfaces as CheckpointError, never as a bare runtime_error.
  template <typename Get>
  std::invoke_result_t<Get&, const JsonValue&> Read(std::string_view key, Get get) const {
    const JsonValue* node = Cur().Find(key);
    if (node == nullptr) {
      throw CheckpointError("checkpoint state: missing key '" + std::string(key) + "'");
    }
    try {
      return get(*node);
    } catch (const std::runtime_error& e) {
      throw CheckpointError("checkpoint state: key '" + std::string(key) + "': " +
                            e.what());
    }
  }
  std::vector<Frame> stack_;
};

class Digester {
 public:
  static constexpr bool kLoading = false;

  explicit Digester(StateDigest* d) : d_(d) {}

  void Field(std::string_view key, uint64_t& v) {
    d_->MixStr(key);
    d_->MixU64(v);
  }
  void Field(std::string_view key, int64_t& v) {
    d_->MixStr(key);
    d_->MixI64(v);
  }
  void Field(std::string_view key, int& v) {
    d_->MixStr(key);
    d_->MixI64(v);
  }
  void Field(std::string_view key, bool& v) {
    d_->MixStr(key);
    d_->MixBool(v);
  }
  void Field(std::string_view key, double& v) {
    d_->MixStr(key);
    d_->MixDouble(v);
  }
  void Field(std::string_view key, std::string& v) {
    d_->MixStr(key);
    d_->MixStr(v);
  }

  void Begin(std::string_view key) {
    d_->MixLabel(key);
    d_->MixByte('{');
  }
  void End() { d_->MixByte('}'); }

  size_t BeginArray(std::string_view key, size_t n) {
    d_->MixLabel(key);
    d_->MixByte('[');
    d_->MixU64(n);
    return n;
  }
  void BeginElem() { d_->MixByte('{'); }
  void EndElem() { d_->MixByte('}'); }
  void EndArray() { d_->MixByte(']'); }

  void I64Vec(std::string_view key, std::vector<int64_t>& v) {
    d_->MixLabel(key);
    d_->MixU64(v.size());
    for (const int64_t x : v) {
      d_->MixI64(x);
    }
  }

 private:
  StateDigest* d_;
};

// An enum as its integer value. A loaded value outside [0, count) names no
// enumerator, so it is a malformed checkpoint: CheckpointError naming `what`.
template <typename Ar, typename Enum>
void ArchiveEnum(Ar& ar, std::string_view key, Enum& e, size_t count, std::string_view what) {
  int v = static_cast<int>(e);
  ar.Field(key, v);
  if constexpr (Ar::kLoading) {
    if (v < 0 || static_cast<size_t>(v) >= count) {
      throw CheckpointError("checkpoint state: " + std::string(what) + " " +
                            std::to_string(v) + " is outside [0, " + std::to_string(count) +
                            ")");
    }
    e = static_cast<Enum>(v);
  }
}

}  // namespace faascost

#endif  // FAASCOST_INTEGRITY_ARCHIVE_H_
