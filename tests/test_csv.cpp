#include "src/util/csv.hpp"

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

namespace swft {
namespace {

TEST(Csv, HeaderOnly) {
  CsvWriter csv({"a", "b"});
  EXPECT_EQ(csv.str(), "a,b\n");
}

TEST(Csv, RowsAppendInOrder) {
  CsvWriter csv({"x", "y"});
  csv.addRowOf("1", "2");
  csv.addRowOf("3", "4");
  EXPECT_EQ(csv.str(), "x,y\n1,2\n3,4\n");
}

TEST(Csv, AddRowOfMixedTypes) {
  CsvWriter csv({"name", "count", "rate"});
  csv.addRowOf("uniform", 42, 0.5);
  EXPECT_EQ(csv.str(), "name,count,rate\nuniform,42,0.5\n");
}

TEST(Csv, RejectsWrongWidth) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.addRowOf("only-one"), std::invalid_argument);
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"v"});
  csv.addRowOf("has,comma");
  csv.addRowOf("has\"quote");
  EXPECT_EQ(csv.str(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(Csv, WriteFileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "swft_csv_test.csv";
  CsvWriter csv({"a"});
  csv.addRowOf(1);
  csv.writeFile(path);
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a\n1\n");
  std::remove(path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

struct stat statOf(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st;
}

TEST(Csv, WriteFileOverwritesInPlaceAndCutsToLength) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / "swft_csv_overwrite";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir / "a.csv";

  CsvWriter csv({"a", "b"});
  csv.addRowOf(1, 2);
  csv.writeFile(path);
  const ino_t inode = statOf(path).st_ino;

  // The same bytes again, then the same size with different bytes: the
  // file is overwritten in place, not replaced.
  csv.writeFile(path);
  EXPECT_EQ(slurp(path), csv.str());
  CsvWriter changed({"a", "b"});
  changed.addRowOf(1, 3);
  ASSERT_EQ(changed.str().size(), csv.str().size());
  changed.writeFile(path);
  EXPECT_EQ(slurp(path), changed.str());
  EXPECT_EQ(statOf(path).st_ino, inode);

  // A shorter text leaves nothing of the longer old one behind, and a
  // longer text after it is whole.
  CsvWriter shorter({"a"});
  shorter.writeFile(path);
  EXPECT_EQ(slurp(path), "a\n");
  csv.writeFile(path);
  EXPECT_EQ(slurp(path), csv.str());

  // A directory at the path fails, naming it.
  const std::string sub = dir / "sub";
  std::filesystem::create_directory(sub);
  try {
    csv.writeFile(sub);
    ADD_FAILURE() << "writing over a directory must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(sub), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

/// The one-cell CSV text of `v` and the bytes a default-formatted stream
/// prints for it must agree: cells are formatted without a stream, and
/// every artifact byte depends on this.
template <typename T>
void expectStreamCell(const T& v) {
  CsvWriter csv({"v"});
  csv.addRowOf(v);
  std::ostringstream os;
  os << v;
  EXPECT_EQ(csv.str(), "v\n" + os.str() + "\n");
}

TEST(Csv, ArithmeticCellsMatchStreamFormatting) {
  using dbl = std::numeric_limits<double>;
  const double tricky[] = {0.0,
                           -0.0,
                           dbl::infinity(),
                           -dbl::infinity(),
                           dbl::quiet_NaN(),
                           -dbl::quiet_NaN(),
                           dbl::denorm_min(),
                           dbl::min() / 3.0,
                           dbl::min(),
                           dbl::max(),
                           dbl::lowest(),
                           1e-5,
                           0.0001,
                           std::nextafter(0.0001, 0.0),
                           999999.5,
                           999999.4,
                           -999999.5,
                           1e6,
                           100000.0,
                           0.00233333,
                           1.23457e+08,
                           123456789.0,
                           1.0 / 3.0,
                           0.5,
                           42.0};
  for (const double v : tricky) expectStreamCell(v);
  std::mt19937_64 rng(20061019);
  for (int i = 0; i < 20000; ++i) expectStreamCell(std::bit_cast<double>(rng()));
  for (const float v : {0.1f, -3.5e-20f, 1.0f / 3.0f, 16777217.0f}) expectStreamCell(v);

  for (const int v : {0, 42, -42, std::numeric_limits<int>::max(),
                      std::numeric_limits<int>::min()}) {
    expectStreamCell(v);
  }
  for (const long v : {-1L, std::numeric_limits<long>::max(), std::numeric_limits<long>::min()}) {
    expectStreamCell(v);
  }
  expectStreamCell(std::numeric_limits<std::uint32_t>::max());
  expectStreamCell(std::numeric_limits<std::uint64_t>::max());
  expectStreamCell(std::numeric_limits<std::int64_t>::min());
  expectStreamCell(std::int16_t{-7});
}

TEST(Csv, WriteFileReportsFailure) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  CsvWriter csv({"a"});
  csv.addRowOf(1);
  try {
    csv.writeFile("/dev/full");
    ADD_FAILURE() << "writing to a full device must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace swft
