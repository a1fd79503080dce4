// Locale-independent number-to-text appenders. One implementation shared by
// the canonical config key, the cache entry format, the cache file names and
// the CSV cells: each appends into a caller's std::string with
// std::to_chars, so no stream is built and no temporary string is made, and
// each writes exactly the bytes the default-formatted ostream would.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>

namespace swft {

/// The integer types an ostream prints as decimal numbers. bool and the
/// character types are excluded: a stream prints them as 1/0 and as
/// characters.
template <typename T>
concept DecimalInteger =
    std::integral<T> && !std::same_as<T, bool> && !std::same_as<T, char> &&
    !std::same_as<T, signed char> && !std::same_as<T, unsigned char> &&
    !std::same_as<T, wchar_t> && !std::same_as<T, char8_t> &&
    !std::same_as<T, char16_t> && !std::same_as<T, char32_t>;

/// `v` in decimal, as `os << v` prints it.
template <DecimalInteger T>
void appendDecimal(std::string& out, T v) {
  char buf[24];  // 20 digits of u64 max, or a sign and 19 digits
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Writes `v` as exactly 16 lowercase hex digits, most significant first,
/// to out[0..16).
inline void writeHex16(char* out, std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) out[i] = kHex[(v >> (60 - 4 * i)) & 0xF];
}

/// `v` as exactly 16 lowercase hex digits, most significant first.
inline void appendHex16(std::string& out, std::uint64_t v) {
  char buf[16];
  writeHex16(buf, v);
  out.append(buf, sizeof buf);
}

}  // namespace swft
