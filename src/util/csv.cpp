#include "src/util/csv.hpp"

#include <fstream>
#include <stdexcept>

namespace swft {

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {}

void CsvWriter::addRow(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("CsvWriter: row width does not match header");
  }
  rows_.push_back(std::move(cells));
}

void CsvWriter::appendEscaped(std::string& out, std::string_view cell) {
  if (cell.find_first_of(",\"\n") == std::string_view::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string CsvWriter::str() const {
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) out += ',';
    appendEscaped(out, header_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      appendEscaped(out, row[i]);
    }
    out += '\n';
  }
  return out;
}

void CsvWriter::writeFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("CsvWriter: cannot open " + path);
  f << str();
  // close() flushes: a full disk or an I/O error shows up here, not at
  // construction, and must not leave a silently truncated artifact.
  f.close();
  if (!f) throw std::runtime_error("CsvWriter: cannot write " + path);
}

}  // namespace swft
