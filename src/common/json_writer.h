// Minimal streaming JSON writer shared by the exporters, benches, and CLI.
//
// The writer appends to an internal buffer and tracks nesting in a small
// state stack so commas are inserted automatically. Output is compact (no
// whitespace) and byte-deterministic: doubles are formatted with the
// shortest round-trip representation (std::to_chars), so the same values
// always produce the same bytes. Non-finite doubles have no JSON encoding
// and are emitted as `null`.

#ifndef FAASCOST_COMMON_JSON_WRITER_H_
#define FAASCOST_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace faascost {

class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Writes an object key; the next call must write its value.
  void Key(std::string_view key);

  void Value(std::string_view v);
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(bool v);
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(int64_t v);
  void Value(uint64_t v);
  void Value(double v);
  void Null();

  // Key + value in one call.
  template <typename T>
  void KV(std::string_view key, T v) {
    Key(key);
    Value(v);
  }

  // The document so far. Valid JSON once all containers are closed.
  const std::string& str() const { return out_; }

  // True when every BeginObject/BeginArray has been matched by its End.
  bool balanced() const { return stack_.empty(); }

  // Appends the escaped form of `v` (quotes included) to `out`; exposed so
  // callers building JSON by hand can share the escaping rules. Runs that
  // need no escaping are copied in bulk.
  static void AppendEscaped(std::string* out, std::string_view v);

  // Shortest round-trip decimal form of `v`; "null" for non-finite values.
  // AppendDouble writes the same bytes to the end of `out`.
  static std::string FormatDouble(double v);
  static void AppendDouble(std::string* out, double v);

 private:
  enum class Scope : uint8_t { kObject, kArray };

  // Emits the separator owed before a value (or key) in the current scope.
  void BeforeValue();

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;
  bool pending_key_ = false;
};

}  // namespace faascost

#endif  // FAASCOST_COMMON_JSON_WRITER_H_
