// Minimal CSV emitter used by the benchmark harness to dump experiment rows
// in a form that plots directly (one row per sweep point).
#pragma once

#include <charconv>
#include <concepts>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/text.hpp"

namespace swft {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  /// Append one row; the number of cells must match the header.
  void addRow(std::vector<std::string> cells);

  template <typename... Ts>
  void addRowOf(const Ts&... values) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(Ts));
    (cells.push_back(toCell(values)), ...);
    addRow(std::move(cells));
  }

  [[nodiscard]] std::string str() const;
  /// Writes str() to `path`; throws std::runtime_error naming the path when
  /// the file cannot be opened or any byte of it cannot be written.
  void writeFile(const std::string& path) const;
  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

 private:
  /// A cell holds exactly what `std::ostream << v` prints with default
  /// flags. Numbers go through std::to_chars, which writes the same bytes
  /// (a floating-point value at the stream's default %g precision of 6)
  /// without building a stream; bool, the character types and anything
  /// else streamable keep the stream.
  template <typename T>
  static std::string toCell(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else if constexpr (DecimalInteger<T>) {
      std::string out;
      appendDecimal(out, v);
      return out;
    } else if constexpr (std::floating_point<T>) {
      char buf[32];  // "-1.23457e+4932" is the longest %g at precision 6
      const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
      return std::string(buf, res.ptr);
    } else {
      std::ostringstream os;
      os << v;
      return os.str();
    }
  }
  static void appendEscaped(std::string& out, std::string_view cell);

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace swft
