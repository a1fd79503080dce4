#include "src/harness/result_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "src/harness/table.hpp"
#include "src/util/file_io.hpp"
#include "src/util/fnv.hpp"
#include "src/util/text.hpp"

namespace swft {

namespace {

constexpr std::string_view kEntryMagic = "swft-cache-entry-v1";
constexpr std::string_view kResultMagic = "swft-result-v1";

void put(std::string& out, double v) { appendHex16(out, std::bit_cast<std::uint64_t>(v)); }
void put(std::string& out, std::uint64_t v) { appendDecimal(out, v); }
void put(std::string& out, bool v) { out += v ? '1' : '0'; }

void appendResult(std::string& out, const SimResult& r) {
  out += kResultMagic;
  out += '\n';
  forEachResultField(r, [&out](std::string_view name, std::string_view, const auto& v) {
    out += name;
    out += ' ';
    put(out, v);
    out += '\n';
  });
}

/// Consumes one '\n'-terminated line from the front of `text`; false (and
/// `text` untouched) when no newline is left.
bool takeLine(std::string_view& text, std::string_view& line) {
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos) return false;
  line = text.substr(0, nl);
  text.remove_prefix(nl + 1);
  return true;
}

/// Strict line reader over a view of the block: consumes "<name> <value>\n"
/// lines in order, failing (by setting ok = false) on a name mismatch, so
/// reordered or dropped fields invalidate the whole entry instead of
/// silently zero-filling.
struct FieldReader {
  std::string_view rest;
  bool ok = true;

  std::string_view value(std::string_view name) {
    std::string_view line;
    if (!ok || !takeLine(rest, line) || !line.starts_with(name) ||
        line.size() == name.size() || line[name.size()] != ' ') {
      ok = false;
      return {};
    }
    return line.substr(name.size() + 1);
  }

  void read(std::string_view name, double& out) {
    const std::string_view v = value(name);
    if (!ok || v.size() != 16) {
      ok = false;
      return;
    }
    std::uint64_t bits = 0;
    for (const char c : v) {
      int digit = 0;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else {
        ok = false;
        return;
      }
      bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    out = std::bit_cast<double>(bits);
  }

  void read(std::string_view name, std::uint64_t& out) {
    const std::string_view v = value(name);
    if (!ok) return;
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || ptr != v.data() + v.size()) ok = false;
  }

  void read(std::string_view name, bool& out) {
    const std::string_view v = value(name);
    if (!ok || (v != "0" && v != "1")) {
      ok = false;
      return;
    }
    out = v == "1";
  }
};

/// The result stored in `entry`, provided its magic line is right and its key
/// line names exactly `key`. The embedded canonical key guards against both
/// hash collisions and any drift in the key format itself.
std::optional<SimResult> parseEntry(std::string_view entry, std::string_view key) {
  std::string_view magic;
  std::string_view keyLine;
  if (!takeLine(entry, magic) || magic != kEntryMagic || !takeLine(entry, keyLine) ||
      !keyLine.starts_with("key ") || keyLine.substr(4) != key) {
    return std::nullopt;
  }
  return deserializeResult(entry);
}

}  // namespace

std::string serializeResult(const SimResult& r) {
  std::string out;
  appendResult(out, r);
  return out;
}

std::optional<SimResult> deserializeResult(std::string_view text) {
  std::string_view magic;
  if (!takeLine(text, magic) || magic != kResultMagic) return std::nullopt;
  FieldReader f{text};
  SimResult r;
  forEachResultField(r, [&f](std::string_view name, std::string_view, auto& v) {
    f.read(name, v);
  });
  // The block ends exactly after the last field's line: anything further is
  // a format this reader does not know.
  if (!f.ok || !f.rest.empty()) return std::nullopt;
  return r;
}

std::string defaultCacheDir() {
  if (const char* env = std::getenv("SWFT_CACHE_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
  return resultsDir() + "/cache";
}

ResultCache::ResultCache(std::string dir, std::uint32_t semanticsVersion)
    : dir_(std::move(dir)), version_(semanticsVersion) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (!std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("result cache: cannot create directory '" + dir_ +
                             "': " + ec.message());
  }
  dirFd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirFd_ < 0) {
    throw std::runtime_error("result cache: cannot open directory '" + dir_ +
                             "': " + std::strerror(errno));
  }
}

ResultCache::~ResultCache() { ::close(dirFd_); }

std::string ResultCache::keyFor(const SimConfig& cfg) const {
  std::string name;
  appendHex16(name, canonicalConfigHash(cfg, version_));
  return name;
}

ResultCache::EntryName ResultCache::entryName(std::string_view key) {
  static constexpr std::string_view kSuffix = ".result";
  EntryName name{};  // zero-filled, so the last byte is the terminating NUL
  writeHex16(name.data(), fnv1a64(key));
  kSuffix.copy(name.data() + 16, kSuffix.size());
  return name;
}

std::optional<SimResult> ResultCache::lookup(const SimConfig& cfg) {
  const std::string key = canonicalConfigKey(cfg, version_);
  std::string entry;
  std::optional<SimResult> r;
  if (readWholeFile(dirFd_, entryName(key).data(), entry)) r = parseEntry(entry, key);
  (r ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return r;
}

bool ResultCache::store(const SimConfig& cfg, const SimResult& r) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string key = canonicalConfigKey(cfg, version_);
  const EntryName final = entryName(key);
  std::string tmp(final.data());
  tmp += ".tmp.";
  appendDecimal(tmp, ::getpid());
  tmp += '.';
  appendDecimal(tmp, seq.fetch_add(1, std::memory_order_relaxed));

  std::string entry;
  entry.reserve(key.size() + 640);
  entry += kEntryMagic;
  entry += "\nkey ";
  entry += key;
  entry += '\n';
  appendResult(entry, r);
  if (!writeWholeFile(dirFd_, tmp.c_str(), entry)) {
    ::unlinkat(dirFd_, tmp.c_str(), 0);
    return false;
  }
  // Atomic publish: rename within one directory replaces any existing entry
  // in a single step, so concurrent readers never observe a partial file.
  if (::renameat(dirFd_, tmp.c_str(), dirFd_, final.data()) != 0) {
    ::unlinkat(dirFd_, tmp.c_str(), 0);
    return false;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

ResultCache::StoreInfo ResultCache::scanDir(const std::string& dir) {
  StoreInfo info;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (!e.is_regular_file() || e.path().extension() != ".result") continue;
    ++info.entries;
    info.bytes += e.file_size(ec);
  }
  return info;
}

}  // namespace swft
