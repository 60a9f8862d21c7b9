// serve/json — a minimal JSON value for the line-delimited protocol.
//
// Exactly what the serve protocol needs and nothing more: parse one
// request object per line, build one response object per line.  Objects
// preserve insertion order (responses render deterministically), lookup
// is linear (protocol objects have a handful of keys).  Numbers are
// doubles; every integer the protocol carries (job ids, trial counts,
// budgets) is well inside the 2^53 exact range.  parse() is strict —
// trailing bytes after the value are an error — and throws
// std::invalid_argument with a byte offset.  String escapes cover the
// JSON basics plus non-surrogate \uXXXX (encoded as UTF-8).  Container
// nesting is capped at 128 levels, so adversarial "[[[[..." input is a
// byte-offset error, never a stack overflow.
#ifndef SSNO_SERVE_JSON_HPP
#define SSNO_SERVE_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "exp/fmt.hpp"

namespace ssno::serve {

/// JSON-escapes `s` (no surrounding quotes): exp/fmt.hpp's escaper.
using exp::jsonEscape;

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  JsonValue(bool b) : value_(b) {}
  JsonValue(double n) : value_(n) {}
  JsonValue(int n) : value_(static_cast<double>(n)) {}
  JsonValue(std::int64_t n) : value_(static_cast<double>(n)) {}
  JsonValue(std::uint64_t n) : value_(static_cast<double>(n)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::monostate>(value_);
  }
  [[nodiscard]] bool isBool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool isNumber() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool isString() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool isArray() const {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<Object>(value_);
  }

  /// Checked accessors; throw std::invalid_argument on kind mismatch.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  /// asNumber(), additionally requiring an exact integer.
  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] const Object& asObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Strict parse of exactly one JSON value spanning all of `text`.
  static JsonValue parse(std::string_view text);

  /// Compact single-line rendering (integral doubles print as
  /// integers, so ids and counts round-trip readably).
  [[nodiscard]] std::string dump() const;

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace ssno::serve

#endif  // SSNO_SERVE_JSON_HPP
