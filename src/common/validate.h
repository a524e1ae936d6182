// The one vocabulary of a config's Validate(): range checks that word their
// errors alike and that NaN fails, a helper that nests a sub-config's errors
// under its prefix, and the one way the errors become an exception.

#ifndef FAASCOST_COMMON_VALIDATE_H_
#define FAASCOST_COMMON_VALIDATE_H_

#include <charconv>
#include <concepts>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace faascost {

// Bound of a check that only rules out infinities (and NaN).
inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Which ends of a CheckWithin interval the value may not equal.
enum class Ends { kClosed, kOpen, kOpenLow, kOpenHigh };

namespace internal {

// Shortest text that reads back as `v` (1 for 1.0, nan for NaN).
template <typename T>
std::string CheckText(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

constexpr bool OpenLow(Ends ends) { return ends == Ends::kOpen || ends == Ends::kOpenLow; }
constexpr bool OpenHigh(Ends ends) { return ends == Ends::kOpen || ends == Ends::kOpenHigh; }

// Appends "<field> must be <rule> (<note>), got <value>" and returns false.
// The rule is `op` and `lo` (">= 0"), or the interval from `lo` to `hi` with
// `ends` when `op` is null. Cold and out of line, so a check that holds
// costs its comparisons and nothing more.
template <typename T>
[[gnu::cold, gnu::noinline]] bool Reject(std::vector<std::string>* errors,
                                         std::string_view field, const char* op, T lo, T hi,
                                         Ends ends, std::string_view note, T value) {
  std::string e = std::string(field) + " must be ";
  if (op != nullptr) {
    e += op + CheckText(lo);
  } else {
    e += std::string("in ") + (OpenLow(ends) ? '(' : '[') + CheckText(lo) + ", " +
         CheckText(hi) + (OpenHigh(ends) ? ')' : ']');
  }
  if (!note.empty()) {
    e += " (" + std::string(note) + ")";
  }
  errors->push_back(e + ", got " + CheckText(value));
  return false;
}

inline std::string_view PrefixText(std::string_view part) { return part; }
template <std::integral T>
std::string PrefixText(T part) {
  return CheckText(part);
}

}  // namespace internal

// Each check returns whether `value` keeps its rule, and otherwise appends
// one error to `errors`. Every comparison below is false for NaN, so NaN
// breaks every rule; `note` says what a boundary value means ("0 disables").

template <typename T>
bool CheckAtLeast(std::vector<std::string>* errors, std::string_view field, T value,
                  std::type_identity_t<T> lo, std::string_view note = {}) {
  return lo <= value ||
         internal::Reject(errors, field, ">= ", lo, lo, Ends::kClosed, note, value);
}

template <typename T>
bool CheckAbove(std::vector<std::string>* errors, std::string_view field, T value,
                std::type_identity_t<T> lo, std::string_view note = {}) {
  return lo < value || internal::Reject(errors, field, "> ", lo, lo, Ends::kClosed, note, value);
}

template <typename T>
bool CheckWithin(std::vector<std::string>* errors, std::string_view field, T value,
                 std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                 Ends ends = Ends::kClosed, std::string_view note = {}) {
  return ((internal::OpenLow(ends) ? lo < value : lo <= value) &&
          (internal::OpenHigh(ends) ? value < hi : value <= hi)) ||
         internal::Reject(errors, field, nullptr, lo, hi, ends, note, value);
}

// Appends each error of a sub-config's Validate() under the prefix joined
// from `prefix`, text and integers (`"outages[", i, "]."`). The prefix is
// built per error only, so a valid config pays nothing for it.
template <typename... Parts>
void AppendErrors(std::vector<std::string>* errors, const std::vector<std::string>& sub,
                  const Parts&... prefix) {
  for (const std::string& e : sub) {
    std::string line;
    ((line += internal::PrefixText(prefix)), ...);
    errors->push_back(line + e);
  }
}

// Throws std::invalid_argument("invalid <what>: <error>; <error>...") when
// `errors` (a Validate() result) is non-empty. One line, so a CLI prints it
// as one stderr line.
inline void ThrowIfInvalid(const char* what, const std::vector<std::string>& errors) {
  if (errors.empty()) {
    return;
  }
  std::string msg = std::string("invalid ") + what + ": " + errors.front();
  for (size_t i = 1; i < errors.size(); ++i) {
    msg += "; " + errors[i];
  }
  throw std::invalid_argument(msg);
}

}  // namespace faascost

#endif  // FAASCOST_COMMON_VALIDATE_H_
