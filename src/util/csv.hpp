// Minimal CSV emitter used by the benchmark harness to dump experiment rows
// in a form that plots directly (one row per sweep point).
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/util/text.hpp"

namespace swft {

/// Builds the CSV text in one buffer: the header at construction, then each
/// row's escaped cells as it is added.
class CsvWriter {
 public:
  explicit CsvWriter(const std::vector<std::string>& header);

  /// Append one row; the number of cells must match the header.
  template <typename... Ts>
  void addRowOf(const Ts&... values) {
    checkWidth(sizeof...(Ts));
    bool first = true;
    const auto field = [&](const auto& v) {
      if (!first) text_ += ',';
      first = false;
      appendCell(v);
    };
    (field(values), ...);
    text_ += '\n';
  }

  /// The CSV text so far: the header line and one line per row. The
  /// reference is into this writer and lives as long as it does.
  [[nodiscard]] const std::string& str() const noexcept { return text_; }
  /// Writes str() to `path`; throws std::runtime_error naming the path when
  /// the file cannot be created or any byte of it cannot be written. An
  /// existing file is overwritten in place and cut to str()'s length (see
  /// writeWholeFile: truncating it first costs ext4 a forced writeback).
  void writeFile(const std::string& path) const;

 private:
  /// A cell holds exactly what `std::ostream << v` prints with default
  /// flags. Numbers go through std::to_chars, which writes the same bytes
  /// (a floating-point value at the stream's default %g precision of 6)
  /// without building a stream; they never need quoting. bool and the
  /// character types are rejected at compile time.
  template <typename T>
  void appendCell(const T& v) {
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      appendEscaped(std::string_view(v));
    } else if constexpr (DecimalInteger<T>) {
      appendDecimal(text_, v);
    } else if constexpr (std::floating_point<T>) {
      char buf[32];  // "-1.23457e+4932" is the longest %g at precision 6
      const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
      text_.append(buf, res.ptr);
    } else {
      static_assert(sizeof(T) == 0, "a CSV cell is text, an integer or a floating-point number");
    }
  }
  void appendEscaped(std::string_view cell);
  void checkWidth(std::size_t cells) const;

  std::size_t columns_;
  std::string text_;
};

}  // namespace swft
