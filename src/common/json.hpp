// Minimal recursive-descent JSON parser producing a DOM (json::Value).
// No external dependencies — just enough for loading run reports and
// schema validation (tools/uvreport, tests). Strict JSON: no comments,
// no trailing commas, no inf/nan literals.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.hpp"

namespace uvs::json {

class Value;

/// Object members in source order (insertion-ordered, not sorted).
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::vector<Member>& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// `Find(key)->AsNumber()` with a fallback for absent/non-number members.
  double NumberOr(const std::string& key, double fallback) const;

  /// `Find(key)->AsString()` with a fallback for absent/non-string members.
  std::string StringOr(const std::string& key, const std::string& fallback) const;

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Number(double n);
  static Value String(std::string s);
  static Value Array(std::vector<Value> items);
  static Value Object(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Parses one JSON document; trailing non-whitespace is an error.
Result<Value> Parse(std::string_view text);

/// Reads the file and parses it as one JSON document.
Result<Value> ParseFile(const std::string& path);

/// Shortest text that round-trips `v` ("%.17g", and "0" for -0). Callers
/// pass finite values: JSON has no inf or nan.
std::string Number(double v);

/// `s` escaped for use inside a JSON string literal (quotes not added).
std::string Escape(std::string_view s);

}  // namespace uvs::json
