// One tokenizer for every `key=value` text input: scenario specs and
// job-trace lines (tokens separated by blanks), fault-event and SLO option
// lists (separated by ','). Every grammar reads its keys through the strict
// typed getters below, so one rule set holds everywhere: a token splits at
// its first '=' (fault-plan values contain '=', ';', ':' and ','), each key
// appears once, a key no getter reads is an error, and every error names
// its key, e.g. "procs: not an integer: '8abc'".
#pragma once

#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/parse.hpp"
#include "src/common/status.hpp"
#include "src/common/units.hpp"

namespace uvs {

/// The pieces of `text` between occurrences of `sep`, empty ones included.
std::vector<std::string> SplitOn(const std::string& text, char sep);

/// `text` without leading and trailing blanks (space, tab, CR, LF).
std::string Trim(const std::string& text);

/// A tokenized `key=value` list. A getter reads its key when present and
/// leaves the target untouched otherwise; the first error sticks and is
/// returned by Finish().
class KeyValues {
 public:
  /// With `sep == ' '` tokens are separated by runs of blanks. With any
  /// other `sep` they are separated by `sep`, blanks around keys and values
  /// are dropped, and empty tokens are skipped.
  explicit KeyValues(const std::string& text, char sep = ' ');

  /// Fails unless `key` is present.
  void Require(const char* key);

  /// The value as read by `parse`, a function from its text to Result<T>.
  /// The getters below are this one with a fixed `parse`.
  template <typename T, typename Parse>
  void Read(const char* key, T* out, Parse parse) {
    const std::string* value = Take(key);
    if (value == nullptr) return;
    const Result<T> parsed = parse(*value);
    if (parsed.ok()) *out = *parsed;
    else Fail(key, parsed.status().message());
  }

  /// An integer of type T, or a finite double, in [min, max].
  template <typename T>
  void Number(const char* key, T* out, std::type_identity_t<T> min,
              std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    Read(key, out, [&](const std::string& v) { return ParseNumber<T>(v, min, max); });
  }

  /// Exactly "0" or "1".
  void Bool(const char* key, bool* out);

  /// A whole number of MiB, at least `min_mib`, stored in bytes.
  void MiB(const char* key, Bytes* out, Bytes min_mib);

  /// The enum value in [0, count) whose `name` is the text, so a grammar
  /// parses exactly the names it prints.
  template <typename E>
  void Choice(const char* key, E* out, const char* (*name)(E), int count) {
    Read(key, out, [&](const std::string& v) -> Result<E> {
      std::string want;
      for (int i = 0; i < count; ++i) {
        if (v == name(static_cast<E>(i))) return static_cast<E>(i);
        if (i > 0) want += '|';
        want += name(static_cast<E>(i));
      }
      return InvalidArgumentError("unknown value '" + v + "' (want " + want + ")");
    });
  }

  /// OK, or the first error: a malformed or repeated token, a bad value, a
  /// missing required key, or a key no getter read.
  Status Finish() const;

 private:
  struct Token {
    std::string key;
    std::string value;
    bool read = false;
  };

  /// The value of `key`, marked read, or null when absent.
  const std::string* Take(const char* key);
  void Fail(const std::string& key, const std::string& why);

  std::vector<Token> tokens_;
  Status error_;
};

}  // namespace uvs
