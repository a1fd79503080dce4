// Content-addressed on-disk store of simulation results.
//
// Every cached entry is one file named by the FNV-1a-64 hash of the
// config's canonical key (src/sim/config_canon.hpp); the file embeds the
// full key and an exact-double serialization of the SimResult. Because all
// engines are bit-identical for a given config, a cache hit IS the result a
// fresh simulation would produce — re-running a sweep against a warm store
// pays only for points whose configuration actually changed.
//
// Concurrency: entries are written to a uniquely-named temp file in the
// store directory and published with an atomic rename, so any number of
// sweep-pool workers and sharded processes can share one store. A reader
// sees either no file or a complete entry, never a torn one; two writers
// racing on the same key both publish identical bytes, so last-rename-wins
// is benign. Within one process, lookup and store may be called from many
// threads at once: the hit/miss/insert counters are atomics, and the two
// calls share no other mutable state. Corrupt or truncated entries (key
// mismatch, bad magic, parse failure) are treated as misses and silently
// re-stored, never trusted.
//
// I/O: the constructor opens the store directory once, and every lookup and
// store names its entry relative to that descriptor (openat, renameat,
// unlinkat), so the kernel resolves one name, not the whole path. The
// descriptor is only read after construction, so sharing it across threads
// is safe.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/sim/config_canon.hpp"
#include "src/sim/stats.hpp"

namespace swft {

/// Exact serialization of every SimResult field, one "<name> <value>" line
/// each in forEachResultField's order: doubles as IEEE-754 bit patterns (16
/// hex digits), counters as decimal u64, flags as 0/1. The format is
/// versioned and strictly ordered; deserializeResult returns
/// nullopt on any deviation (missing/reordered/garbled field, bad magic).
[[nodiscard]] std::string serializeResult(const SimResult& r);
[[nodiscard]] std::optional<SimResult> deserializeResult(std::string_view text);

/// Default store directory: $SWFT_CACHE_DIR, else `<results>/cache` under
/// the (SWFT_RESULTS_DIR-aware) results directory.
[[nodiscard]] std::string defaultCacheDir();

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
};

class ResultCache {
 public:
  /// Opens (creating, parents included) the store at `dir`. Keys embed
  /// `semanticsVersion`, so bumping kEngineSemanticsVersion orphans every
  /// existing entry (full miss) without touching the files. Throws
  /// std::runtime_error when the directory cannot be created or opened.
  explicit ResultCache(std::string dir,
                       std::uint32_t semanticsVersion = kEngineSemanticsVersion);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Content address of `cfg`: 16 lowercase hex digits.
  [[nodiscard]] std::string keyFor(const SimConfig& cfg) const;

  /// Returns the stored result, or nullopt (absent, corrupt, key-collision
  /// or version mismatch). Counts one hit or one miss. Safe to call
  /// concurrently with lookup and store.
  [[nodiscard]] std::optional<SimResult> lookup(const SimConfig& cfg);

  /// Publishes `r` under cfg's content address (write temp + atomic
  /// rename). Returns false on I/O failure; counts one insert on success.
  /// Safe to call concurrently with lookup and store, for the same key too.
  bool store(const SimConfig& cfg, const SimResult& r);

  /// A snapshot of the counters; exact once concurrent calls have returned.
  [[nodiscard]] CacheStats stats() const noexcept {
    return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
            inserts_.load(std::memory_order_relaxed)};
  }

  struct StoreInfo {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };
  /// Scan of the store directory (for `swft_bench --cache-stats`).
  [[nodiscard]] static StoreInfo scanDir(const std::string& dir);

 private:
  /// "<16 hex digits>.result" plus a NUL: the file name, relative to the
  /// store directory, of the entry whose canonical key is `key`.
  using EntryName = std::array<char, 16 + 7 + 1>;
  [[nodiscard]] static EntryName entryName(std::string_view key);

  std::string dir_;
  int dirFd_ = -1;  // the store directory, opened once; entries are named relative to it
  std::uint32_t version_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
};

}  // namespace swft
