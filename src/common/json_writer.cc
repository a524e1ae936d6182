#include "src/common/json_writer.h"

#include <cassert>
#include <charconv>
#include <cmath>

namespace faascost {

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    // The comma (if any) was written with the key.
    pending_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    assert(stack_.back() == Scope::kArray);
    if (has_items_.back()) {
      out_.push_back(',');
    }
    has_items_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
}

void JsonWriter::EndObject() {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  assert(!pending_key_);
  out_.push_back('}');
  stack_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
}

void JsonWriter::EndArray() {
  assert(!stack_.empty() && stack_.back() == Scope::kArray);
  out_.push_back(']');
  stack_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  assert(!pending_key_);
  if (has_items_.back()) {
    out_.push_back(',');
  }
  has_items_.back() = true;
  AppendEscaped(&out_, key);
  out_.push_back(':');
  pending_key_ = true;
}

void JsonWriter::Value(std::string_view v) {
  BeforeValue();
  AppendEscaped(&out_, v);
}

void JsonWriter::Value(bool v) {
  BeforeValue();
  out_.append(v ? "true" : "false");
}

void JsonWriter::Value(int64_t v) {
  BeforeValue();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void JsonWriter::Value(uint64_t v) {
  BeforeValue();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void JsonWriter::Value(double v) {
  BeforeValue();
  AppendDouble(&out_, v);
}

void JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
}

void JsonWriter::AppendEscaped(std::string* out, std::string_view v) {
  out->push_back('"');
  size_t plain = 0;  // Start of the run not yet copied.
  for (size_t i = 0; i < v.size(); ++i) {
    const auto c = static_cast<unsigned char>(v[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out->append(v.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(code, sizeof(code));
      }
    }
  }
  out->append(v.data() + plain, v.size() - plain);
  out->push_back('"');
}

std::string JsonWriter::FormatDouble(double v) {
  std::string out;
  AppendDouble(&out, v);
  return out;
}

void JsonWriter::AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace faascost
