#include "src/util/csv.hpp"

#include <fcntl.h>

#include <stdexcept>

#include "src/util/file_io.hpp"

namespace swft {

CsvWriter::CsvWriter(const std::vector<std::string>& header) : columns_(header.size()) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) text_ += ',';
    appendEscaped(header[i]);
  }
  text_ += '\n';
}

void CsvWriter::checkWidth(std::size_t cells) const {
  if (cells != columns_) {
    throw std::invalid_argument("CsvWriter: row width does not match header");
  }
}

void CsvWriter::appendEscaped(std::string_view cell) {
  if (cell.find_first_of(",\"\n") == std::string_view::npos) {
    text_ += cell;
    return;
  }
  text_ += '"';
  for (char c : cell) {
    if (c == '"') text_ += '"';
    text_ += c;
  }
  text_ += '"';
}

void CsvWriter::writeFile(const std::string& path) const {
  if (!writeWholeFile(AT_FDCWD, path.c_str(), text_)) {
    throw std::runtime_error("CsvWriter: cannot write " + path);
  }
}

}  // namespace swft
