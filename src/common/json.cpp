#include "src/common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace uvs::json {

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : object_)
    if (m.first == key) return &m.second;
  return nullptr;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

std::string Value::StringOr(const std::string& key, const std::string& fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : fallback;
}

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::Object(std::vector<Member> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    SkipWs();
    Value root;
    UVS_RETURN_IF_ERROR(ParseValue(&root, 0));
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after document");
    return root;
  }

 private:
  // Deep-enough for any report this library writes; guards against stack
  // exhaustion on adversarial input.
  static constexpr int kMaxDepth = 64;

  Status Fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return InvalidArgumentError("json: " + what + " at line " + std::to_string(line) +
                                ", column " + std::to_string(col));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        UVS_RETURN_IF_ERROR(ParseString(&s));
        *out = Value::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (Literal("true")) {
          *out = Value::Bool(true);
          return Status::Ok();
        }
        return Fail("invalid literal");
      case 'f':
        if (Literal("false")) {
          *out = Value::Bool(false);
          return Status::Ok();
        }
        return Fail("invalid literal");
      case 'n':
        if (Literal("null")) {
          *out = Value::Null();
          return Status::Ok();
        }
        return Fail("invalid literal");
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    std::vector<Member> members;
    SkipWs();
    if (Eat('}')) {
      *out = Value::Object(std::move(members));
      return Status::Ok();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected object key");
      std::string key;
      UVS_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Eat(':')) return Fail("expected ':' after object key");
      SkipWs();
      Value value;
      UVS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Eat('}')) break;
      if (!Eat(',')) return Fail("expected ',' or '}' in object");
    }
    *out = Value::Object(std::move(members));
    return Status::Ok();
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    std::vector<Value> items;
    SkipWs();
    if (Eat(']')) {
      *out = Value::Array(std::move(items));
      return Status::Ok();
    }
    while (true) {
      SkipWs();
      Value value;
      UVS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      items.push_back(std::move(value));
      SkipWs();
      if (Eat(']')) break;
      if (!Eat(',')) return Fail("expected ',' or ']' in array");
    }
    *out = Value::Array(std::move(items));
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) return Fail("raw control character in string");
      if (c != '\\') {
        s += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) return Fail("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("invalid hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two separate 3-byte sequences; the reports this
          // library writes never emit them).
          if (code < 0x80) {
            s += static_cast<char>(code);
          } else if (code < 0x800) {
            s += static_cast<char>(0xC0 | (code >> 6));
            s += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (code >> 12));
            s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Fail("invalid escape");
      }
    }
    *out = std::move(s);
    return Status::Ok();
  }

  Status ParseNumber(Value* out) {
    const std::size_t start = pos_;
    if (Eat('-')) {
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      return Fail("invalid number");
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (Eat('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return Fail("digits required after decimal point");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return Fail("digits required in exponent");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("invalid number");
    if (!std::isfinite(v)) return Fail("number out of range");
    *out = Value::Number(v);
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

Result<Value> ParseFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Result<Value>(NotFoundError("cannot open " + path));
  std::string body;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Result<Value>(UnavailableError("error reading " + path));
  return Parse(body);
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::strcmp(buf, "-0") == 0 ? "0" : buf;
}

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace uvs::json
