// Tiny shared formatting and parsing helpers for the exp and serve
// subsystems and the command-line tools.
#ifndef SSNO_EXP_FMT_HPP
#define SSNO_EXP_FMT_HPP

#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace ssno::exp {

/// Shortest decimal rendering that parses back to the identical double;
/// keeps spec names and CSV/JSON output byte-stable and round-trippable.
[[nodiscard]] inline std::string shortestDouble(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

/// JSON-escapes `s` (no surrounding quotes): quotes, backslashes and
/// every control character.
[[nodiscard]] inline std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// All of `text` as a T under std::from_chars (no sign on unsigned
/// types, no whitespace, no trailing junk); nullopt otherwise.
template <typename T>
[[nodiscard]] std::optional<T> parseWhole(const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// parseWhole for a command-line flag's value; the error names `flag`.
template <typename T>
[[nodiscard]] T parseFlag(const std::string& flag, const std::string& text) {
  if (const std::optional<T> v = parseWhole<T>(text)) return *v;
  throw std::invalid_argument(flag + " needs a number, got '" + text + "'");
}

}  // namespace ssno::exp

#endif  // SSNO_EXP_FMT_HPP
