// Fixed-width hex encoding of 64-bit words. One implementation shared by the
// canonical config key (exact double tokens), the cache entry format (raw
// double bits) and the cache file names (config hashes), which all promise
// the same 16 lowercase digits on every machine.
#pragma once

#include <cstdint>
#include <string>

namespace swft {

/// `v` as exactly 16 lowercase hex digits, most significant first.
[[nodiscard]] inline std::string hex16(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = kHex[(v >> (60 - 4 * i)) & 0xF];
  }
  return out;
}

}  // namespace swft
