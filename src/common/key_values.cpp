#include "src/common/key_values.hpp"

#include <string_view>

namespace uvs {

namespace {
constexpr std::string_view kBlanks = " \t\r\n";
}  // namespace

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string::npos) return parts;
    start = end + 1;
  }
}

std::string Trim(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(kBlanks);
  if (begin == std::string::npos) return "";
  return text.substr(begin, text.find_last_not_of(kBlanks) - begin + 1);
}

KeyValues::KeyValues(const std::string& text, char sep) {
  std::string list = text;
  if (sep == ' ')
    for (char& c : list)
      if (kBlanks.find(c) != kBlanks.npos) c = ' ';
  for (const std::string& item : SplitOn(list, sep)) {
    if (Trim(item).empty()) continue;
    const std::size_t eq = item.find('=');
    Token token{Trim(item.substr(0, eq)), eq == std::string::npos ? "" : Trim(item.substr(eq + 1))};
    if (eq == std::string::npos || token.key.empty()) {
      Fail("", "expected key=value, got '" + item + "'");
      return;
    }
    for (const Token& seen : tokens_) {
      if (seen.key != token.key) continue;
      Fail(token.key, "duplicate key");
      return;
    }
    tokens_.push_back(std::move(token));
  }
}

void KeyValues::Require(const char* key) {
  for (const Token& token : tokens_)
    if (token.key == key) return;
  Fail(key, "required");
}

void KeyValues::Bool(const char* key, bool* out) {
  Choice(key, out, +[](bool b) { return b ? "1" : "0"; }, 2);
}

void KeyValues::MiB(const char* key, Bytes* out, Bytes min_mib) {
  Read(key, out, [min_mib](const std::string& v) -> Result<Bytes> {
    const Result<Bytes> mib = ParseNumber(v, min_mib, std::numeric_limits<Bytes>::max() / 1_MiB);
    if (!mib.ok()) return mib.status();
    return *mib * 1_MiB;
  });
}

Status KeyValues::Finish() const {
  if (!error_.ok()) return error_;
  for (const Token& token : tokens_)
    if (!token.read) return InvalidArgumentError("unknown key '" + token.key + "'");
  return Status::Ok();
}

const std::string* KeyValues::Take(const char* key) {
  for (Token& token : tokens_) {
    if (token.key != key) continue;
    token.read = true;
    return &token.value;
  }
  return nullptr;
}

void KeyValues::Fail(const std::string& key, const std::string& why) {
  if (error_.ok()) error_ = InvalidArgumentError(key.empty() ? why : key + ": " + why);
}

}  // namespace uvs
