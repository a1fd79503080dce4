#include "src/harness/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <charconv>
#include <cstdlib>
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

void putName(std::string& out, std::string_view name) {
  out += name;
  out += ' ';
}

void putDouble(std::string& out, std::string_view name, double v) {
  putName(out, name);
  appendHex16(out, std::bit_cast<std::uint64_t>(v));
  out += '\n';
}

void putU64(std::string& out, std::string_view name, std::uint64_t v) {
  putName(out, name);
  appendDecimal(out, v);
  out += '\n';
}

void putBool(std::string& out, std::string_view name, bool v) {
  putName(out, name);
  out += v ? '1' : '0';
  out += '\n';
}

void appendResult(std::string& out, const SimResult& r) {
  out += kResultMagic;
  out += '\n';
  putDouble(out, "mean_latency", r.meanLatency);
  putDouble(out, "latency_stddev", r.latencyStddev);
  putDouble(out, "max_latency", r.maxLatency);
  putDouble(out, "latency_p50", r.latencyP50);
  putDouble(out, "latency_p95", r.latencyP95);
  putDouble(out, "latency_p99", r.latencyP99);
  putDouble(out, "latency_ci95", r.latencyCi95);
  putDouble(out, "mean_hops", r.meanHops);
  putU64(out, "cycles", r.cycles);
  putU64(out, "generated_total", r.generatedTotal);
  putU64(out, "delivered_total", r.deliveredTotal);
  putU64(out, "delivered_measured", r.deliveredMeasured);
  putDouble(out, "throughput", r.throughput);
  putDouble(out, "offered_load", r.offeredLoad);
  putU64(out, "messages_queued", r.messagesQueued);
  putU64(out, "absorbed_messages", r.absorbedMessages);
  putU64(out, "reversals", r.reversals);
  putU64(out, "detours", r.detours);
  putU64(out, "escalations", r.escalations);
  putBool(out, "saturated", r.saturated);
  putBool(out, "deadlock_suspected", r.deadlockSuspected);
  putBool(out, "completed", r.completed);
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

  double readDouble(std::string_view name) {
    const std::string_view v = value(name);
    if (!ok || v.size() != 16) {
      ok = false;
      return 0.0;
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
        return 0.0;
      }
      bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    return std::bit_cast<double>(bits);
  }

  std::uint64_t readU64(std::string_view name) {
    const std::string_view v = value(name);
    if (!ok) return 0;
    std::uint64_t out = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || ptr != v.data() + v.size()) {
      ok = false;
      return 0;
    }
    return out;
  }

  bool readBool(std::string_view name) {
    const std::string_view v = value(name);
    if (!ok || (v != "0" && v != "1")) {
      ok = false;
      return false;
    }
    return v == "1";
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
  r.meanLatency = f.readDouble("mean_latency");
  r.latencyStddev = f.readDouble("latency_stddev");
  r.maxLatency = f.readDouble("max_latency");
  r.latencyP50 = f.readDouble("latency_p50");
  r.latencyP95 = f.readDouble("latency_p95");
  r.latencyP99 = f.readDouble("latency_p99");
  r.latencyCi95 = f.readDouble("latency_ci95");
  r.meanHops = f.readDouble("mean_hops");
  r.cycles = f.readU64("cycles");
  r.generatedTotal = f.readU64("generated_total");
  r.deliveredTotal = f.readU64("delivered_total");
  r.deliveredMeasured = f.readU64("delivered_measured");
  r.throughput = f.readDouble("throughput");
  r.offeredLoad = f.readDouble("offered_load");
  r.messagesQueued = f.readU64("messages_queued");
  r.absorbedMessages = f.readU64("absorbed_messages");
  r.reversals = f.readU64("reversals");
  r.detours = f.readU64("detours");
  r.escalations = f.readU64("escalations");
  r.saturated = f.readBool("saturated");
  r.deadlockSuspected = f.readBool("deadlock_suspected");
  r.completed = f.readBool("completed");
  // The block ends exactly after `completed`'s line: anything further is a
  // format this reader does not know.
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
}

std::string ResultCache::keyFor(const SimConfig& cfg) const {
  std::string name;
  appendHex16(name, canonicalConfigHash(cfg, version_));
  return name;
}

std::string ResultCache::entryPath(std::string_view key) const {
  std::string path = dir_;
  path += '/';
  appendHex16(path, fnv1a64(key));
  path += ".result";
  return path;
}

std::optional<SimResult> ResultCache::lookup(const SimConfig& cfg) {
  const std::string key = canonicalConfigKey(cfg, version_);
  std::string entry;
  std::optional<SimResult> r;
  if (readWholeFile(entryPath(key), entry)) r = parseEntry(entry, key);
  (r ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return r;
}

bool ResultCache::store(const SimConfig& cfg, const SimResult& r) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string key = canonicalConfigKey(cfg, version_);
  const std::string final = entryPath(key);
  std::string tmp = final;
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
  std::error_code ec;
  if (!writeWholeFile(tmp, entry)) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  // Atomic publish: rename within one directory replaces any existing entry
  // in a single step, so concurrent readers never observe a partial file.
  std::filesystem::rename(tmp, final, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
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
