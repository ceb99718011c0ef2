// Strict numeric parsing for command-line flags and `key=value` grammars:
// the whole string must be one base-10 number that fits the target type.
// Where atoi/atof return 0 for garbage and wrap or saturate out-of-range
// input, these return an error.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "src/common/status.hpp"

namespace uvs {

/// Parses all of `text` as a base-10 integer of type `Int`.
template <typename Int>
Result<Int> ParseInt(const std::string& text) {
  static_assert(std::is_integral_v<Int>);
  char* end = nullptr;
  errno = 0;
  bool in_range = false;
  Int value = 0;
  if constexpr (std::is_signed_v<Int>) {
    const long long v = std::strtoll(text.c_str(), &end, 10);
    in_range = errno != ERANGE && v >= std::numeric_limits<Int>::min() &&
               v <= std::numeric_limits<Int>::max();
    value = static_cast<Int>(v);
  } else {
    // strtoull negates "-1" into a huge value; an unsigned target takes no sign.
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    in_range = errno != ERANGE && text.find('-') == std::string::npos &&
               v <= std::numeric_limits<Int>::max();
    value = static_cast<Int>(v);
  }
  if (end == text.c_str() || *end != '\0')
    return InvalidArgumentError("not an integer: '" + text + "'");
  if (!in_range) return OutOfRangeError("out of range: '" + text + "'");
  return value;
}

/// Parses all of `text` as a finite double.
inline Result<double> ParseDouble(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    return InvalidArgumentError("not a number: '" + text + "'");
  if (!std::isfinite(value)) return OutOfRangeError("out of range: '" + text + "'");
  return value;
}

}  // namespace uvs
