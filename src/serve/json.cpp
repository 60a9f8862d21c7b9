#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "exp/fmt.hpp"

namespace ssno::serve {
namespace {

[[noreturn]] void fail(std::size_t at, const std::string& what) {
  throw std::invalid_argument("json: " + what + " at byte " +
                              std::to_string(at));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail(pos_, "trailing bytes after value");
    return v;
  }

 private:
  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // Bounds recursion so adversarial input like "[[[[..." fails with a
  // byte-offset error instead of overflowing the stack (UB).  128 is
  // far beyond any protocol message (depth <= 3) and well inside the
  // default stack even with this parser's frame sizes.
  static constexpr std::size_t kMaxDepth = 128;

  JsonValue parseValue() {
    skipWs();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ >= kMaxDepth) fail(pos_, "nesting too deep");
      ++depth_;
      JsonValue v = c == '{' ? parseObject() : parseArray();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue(parseString());
    if (consumeWord("true")) return JsonValue(true);
    if (consumeWord("false")) return JsonValue(false);
    if (consumeWord("null")) return JsonValue();
    return parseNumber();
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue::Object members;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    for (;;) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      members.emplace_back(std::move(key), parseValue());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(members));
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue::Array items;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    for (;;) {
      items.push_back(parseValue());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(items));
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail(pos_ - 1, "raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parseUnicodeEscape(); break;
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  std::string parseUnicodeEscape() {
    if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ - 1, "bad \\u digit");
    }
    if (code >= 0xD800 && code <= 0xDFFF)
      fail(pos_, "surrogate \\u escapes are not supported");
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double out = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start)
      fail(start, "bad number");
    return JsonValue(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open containers; capped at kMaxDepth
};

}  // namespace

bool JsonValue::asBool() const {
  if (!isBool()) throw std::invalid_argument("json: expected a bool");
  return std::get<bool>(value_);
}

double JsonValue::asNumber() const {
  if (!isNumber()) throw std::invalid_argument("json: expected a number");
  return std::get<double>(value_);
}

std::int64_t JsonValue::asInt() const {
  const double v = asNumber();
  if (std::floor(v) != v || std::abs(v) > 9007199254740992.0)
    throw std::invalid_argument("json: expected an integer");
  return static_cast<std::int64_t>(v);
}

const std::string& JsonValue::asString() const {
  if (!isString()) throw std::invalid_argument("json: expected a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::asArray() const {
  if (!isArray()) throw std::invalid_argument("json: expected an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::asObject() const {
  if (!isObject()) throw std::invalid_argument("json: expected an object");
  return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!isObject()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(value_))
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parseDocument();
}

std::string JsonValue::dump() const {
  if (isNull()) return "null";
  if (isBool()) return asBool() ? "true" : "false";
  if (isNumber()) {
    const double v = asNumber();
    if (std::floor(v) == v && std::abs(v) <= 9007199254740992.0)
      return std::to_string(static_cast<std::int64_t>(v));
    return exp::shortestDouble(v);
  }
  if (isString()) {
    std::string out = "\"";
    out += jsonEscape(asString());
    out += '"';
    return out;
  }
  if (isArray()) {
    std::string out = "[";
    bool first = true;
    for (const JsonValue& v : asArray()) {
      if (!first) out += ",";
      first = false;
      out += v.dump();
    }
    return out + "]";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : asObject()) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += jsonEscape(k);
    out += "\":";
    out += v.dump();
  }
  return out + "}";
}

}  // namespace ssno::serve
