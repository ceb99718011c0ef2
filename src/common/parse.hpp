// Strict numeric parsing for command-line flags and `key=value` grammars:
// the whole string must be one base-10 number that fits the target type.
// Where atoi/atof return 0 for garbage and wrap or saturate out-of-range
// input, these return an error. The flag helpers at the end give every
// tool the same `--flag=value` handling and the same usage-error exit.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

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

/// Parses all of `text` as a `T` (an integer type or double) in [min, max].
template <typename T>
Result<T> ParseNumber(const std::string& text, T min, T max = std::numeric_limits<T>::max()) {
  const Result<T> parsed = [&text]() -> Result<T> {
    if constexpr (std::is_floating_point_v<T>) return ParseDouble(text);
    else return ParseInt<T>(text);
  }();
  if (parsed.ok() && (*parsed < min || *parsed > max)) {
    std::ostringstream range;
    range << "must be ";
    if (max == std::numeric_limits<T>::max()) range << ">= " << min;
    else range << "in [" << min << ", " << max << "]";
    return OutOfRangeError(range.str() + ", got " + text);
  }
  return parsed;
}

/// Largest K or M of an erasure code "K+M": K + M cannot overflow an int.
inline constexpr int kMaxEcShards = std::numeric_limits<int>::max() / 2;

/// Parses "K+M", K data and M parity shards, each in [1, kMaxEcShards].
inline Result<std::pair<int, int>> ParseEcShards(const std::string& text) {
  const std::size_t plus = text.find('+');
  if (plus == std::string::npos) return InvalidArgumentError("want K+M, got '" + text + "'");
  const Result<int> k = ParseNumber(text.substr(0, plus), 1, kMaxEcShards);
  if (!k.ok()) return k.status();
  const Result<int> m = ParseNumber(text.substr(plus + 1), 1, kMaxEcShards);
  if (!m.ok()) return m.status();
  return std::pair{*k, *m};
}

/// True when `arg` is "<name>=<value>"; stores the value.
inline bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Prints "<tool>: <flag>: <why>" on stderr and exits 2, every tool's
/// usage-error code. `flag` may also name an argument or an environment
/// variable.
[[noreturn]] inline void BadFlag(const char* tool, const std::string& flag,
                                 const std::string& why) {
  std::fprintf(stderr, "%s: %s: %s\n", tool, flag.c_str(), why.c_str());
  std::exit(2);
}

/// ParseNumber for a command-line value; exits through BadFlag when
/// `value` is not a `T` in [min, max].
template <typename T>
T FlagNumber(const char* tool, const std::string& flag, const std::string& value, T min,
             T max = std::numeric_limits<T>::max()) {
  const Result<T> parsed = ParseNumber(value, min, max);
  if (!parsed.ok()) BadFlag(tool, flag, parsed.status().message());
  return *parsed;
}

}  // namespace uvs
