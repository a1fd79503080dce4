#include "src/harness/result_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/harness/table.hpp"
#include "src/util/hex.hpp"

namespace swft {

namespace {

constexpr std::string_view kEntryMagic = "swft-cache-entry-v1";
constexpr std::string_view kResultMagic = "swft-result-v1";

void putDouble(std::ostringstream& os, std::string_view name, double v) {
  os << name << ' ' << hex16(std::bit_cast<std::uint64_t>(v)) << '\n';
}

void putU64(std::ostringstream& os, std::string_view name, std::uint64_t v) {
  os << name << ' ' << v << '\n';
}

void putBool(std::ostringstream& os, std::string_view name, bool v) {
  os << name << ' ' << (v ? 1 : 0) << '\n';
}

/// Strict line reader: consumes "<name> <value>" from `in`, failing (by
/// setting ok = false) on a name mismatch, so reordered or dropped fields
/// invalidate the whole entry instead of silently zero-filling.
struct FieldReader {
  std::istringstream& in;
  bool ok = true;

  std::string value(std::string_view name) {
    if (!ok) return {};
    std::string line;
    if (!std::getline(in, line)) {
      ok = false;
      return {};
    }
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || std::string_view(line).substr(0, sp) != name) {
      ok = false;
      return {};
    }
    return line.substr(sp + 1);
  }

  double readDouble(std::string_view name) {
    const std::string v = value(name);
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
    const std::string v = value(name);
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
    const std::string v = value(name);
    if (!ok || (v != "0" && v != "1")) {
      ok = false;
      return false;
    }
    return v == "1";
  }
};

}  // namespace

std::string serializeResult(const SimResult& r) {
  std::ostringstream os;
  os << kResultMagic << '\n';
  putDouble(os, "mean_latency", r.meanLatency);
  putDouble(os, "latency_stddev", r.latencyStddev);
  putDouble(os, "max_latency", r.maxLatency);
  putDouble(os, "latency_p50", r.latencyP50);
  putDouble(os, "latency_p95", r.latencyP95);
  putDouble(os, "latency_p99", r.latencyP99);
  putDouble(os, "latency_ci95", r.latencyCi95);
  putDouble(os, "mean_hops", r.meanHops);
  putU64(os, "cycles", r.cycles);
  putU64(os, "generated_total", r.generatedTotal);
  putU64(os, "delivered_total", r.deliveredTotal);
  putU64(os, "delivered_measured", r.deliveredMeasured);
  putDouble(os, "throughput", r.throughput);
  putDouble(os, "offered_load", r.offeredLoad);
  putU64(os, "messages_queued", r.messagesQueued);
  putU64(os, "absorbed_messages", r.absorbedMessages);
  putU64(os, "reversals", r.reversals);
  putU64(os, "detours", r.detours);
  putU64(os, "escalations", r.escalations);
  putBool(os, "saturated", r.saturated);
  putBool(os, "deadlock_suspected", r.deadlockSuspected);
  putBool(os, "completed", r.completed);
  return os.str();
}

std::optional<SimResult> deserializeResult(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string magic;
  if (!std::getline(in, magic) || magic != kResultMagic) return std::nullopt;
  FieldReader f{in};
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
  if (!f.ok) return std::nullopt;
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
  return hex16(canonicalConfigHash(cfg, version_));
}

std::string ResultCache::entryPath(const SimConfig& cfg) const {
  return dir_ + "/" + keyFor(cfg) + ".result";
}

std::optional<SimResult> ResultCache::lookup(const SimConfig& cfg) {
  std::ifstream in(entryPath(cfg), std::ios::binary);
  const auto miss = [this]() -> std::optional<SimResult> {
    ++stats_.misses;
    return std::nullopt;
  };
  if (!in) return miss();
  std::stringstream buf;
  buf << in.rdbuf();
  std::istringstream entry{buf.str()};
  std::string line;
  if (!std::getline(entry, line) || line != kEntryMagic) return miss();
  // The embedded canonical key guards against both hash collisions and any
  // drift in the key format itself: the entry is only trusted when the full
  // key text matches byte-for-byte.
  if (!std::getline(entry, line) ||
      line != "key " + canonicalConfigKey(cfg, version_)) {
    return miss();
  }
  std::string rest(buf.str().substr(static_cast<std::size_t>(entry.tellg())));
  const std::optional<SimResult> r = deserializeResult(rest);
  if (!r) return miss();
  ++stats_.hits;
  return r;
}

bool ResultCache::store(const SimConfig& cfg, const SimResult& r) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string final = entryPath(cfg);
  std::ostringstream tmpName;
  tmpName << final << ".tmp." << ::getpid() << "."
          << seq.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = tmpName.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << kEntryMagic << '\n'
        << "key " << canonicalConfigKey(cfg, version_) << '\n'
        << serializeResult(r);
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  // Atomic publish: rename within one directory replaces any existing entry
  // in a single step, so concurrent readers never observe a partial file.
  std::error_code ec;
  std::filesystem::rename(tmp, final, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  ++stats_.inserts;
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
