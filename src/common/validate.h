// The one way a config's Validate() errors become an exception.

#ifndef FAASCOST_COMMON_VALIDATE_H_
#define FAASCOST_COMMON_VALIDATE_H_

#include <stdexcept>
#include <string>
#include <vector>

namespace faascost {

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
