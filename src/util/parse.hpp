// Strict number parsing for text from outside the program: command-line
// values and description files.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace rcpn::util {

/// `text` as a whole decimal number that fits T, or nullopt: for an empty
/// value, a sign, a suffix, a space, or a value above T's maximum (never
/// truncated).
template <typename T = std::uint64_t>
std::optional<T> parse_decimal(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end ||
      value > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
    return std::nullopt;
  return static_cast<T>(value);
}

}  // namespace rcpn::util
