// In-memory span recorder for the swft_e2e traced pass.
//
// A span is one timed call into a layer: a name, start, end, the span that
// caused it, and an id shared by every span of one sweep point (its label).
// Each thread appends to its own buffer, so recording takes no lock after a
// thread's first span; the buffers are merged only after every worker has
// been joined. When the recorder is disabled a Span costs one relaxed load,
// which is why the untraced pass can run the very same code.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace swft::e2e {

struct SpanRecord {
  const char* name = "";
  std::string id;            // sweep-point label; empty above point level
  std::uint64_t span = 0;    // unique, > 0
  std::uint64_t parent = 0;  // 0: a root span
  double start = 0.0;        // seconds since the recorder's epoch
  double end = 0.0;
  int thread = 0;

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

class SpanRecorder {
 public:
  static SpanRecorder& instance() {
    static SpanRecorder r;
    return r;
  }

  void enable(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept { return on_.load(std::memory_order_relaxed); }

  [[nodiscard]] double now() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }
  std::uint64_t nextId() noexcept { return next_.fetch_add(1, std::memory_order_relaxed); }

  void add(SpanRecord r) {
    Buffer& b = local();
    r.thread = b.thread;
    b.spans.push_back(std::move(r));
  }

  /// The innermost open span on the calling thread (0 when none).
  [[nodiscard]] std::uint64_t current() { return local().open.empty() ? 0 : local().open.back(); }
  void push(std::uint64_t span) { local().open.push_back(span); }
  void pop() { local().open.pop_back(); }

  /// Every recorded span, ordered by start. Call only after the threads that
  /// recorded them were joined.
  [[nodiscard]] std::vector<SpanRecord> collect() const {
    std::vector<SpanRecord> all;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) { return a.start < b.start; });
    return all;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds); opens in
  /// Perfetto and chrome://tracing.
  static bool writeChromeJson(const std::string& path, const std::vector<SpanRecord>& spans) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[64];
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.thread;
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.start * 1e6,
                    s.duration() * 1e6);
      out << buf << ",\"args\":{\"span\":" << s.span << ",\"parent\":" << s.parent;
      if (!s.id.empty()) out << ",\"id\":\"" << s.id << "\"";
      out << "}}";
    }
    out << "\n]}\n";
    out.flush();
    return static_cast<bool>(out);
  }

 private:
  struct Buffer {
    int thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::uint64_t> open;
  };

  Buffer& local() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->thread = static_cast<int>(buffers_.size());
    }
    return *mine;
  }

  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_{1};
  const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;  // guards buffers_ (the list, not each buffer's spans)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: opens on construction, records on destruction. The parent is
/// the innermost open span of this thread unless one is given explicitly
/// (pool workers name the pool span that spawned them).
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  explicit Span(const char* name, std::string id = {}, std::uint64_t parent = kInherit) {
    SpanRecorder& rec = SpanRecorder::instance();
    if (!rec.enabled()) return;
    r_.name = name;
    r_.id = std::move(id);
    r_.span = rec.nextId();
    r_.parent = parent == kInherit ? rec.current() : parent;
    rec.push(r_.span);
    r_.start = rec.now();
  }
  ~Span() {
    if (r_.span == 0) return;
    SpanRecorder& rec = SpanRecorder::instance();
    r_.end = rec.now();
    rec.pop();
    rec.add(std::move(r_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return r_.span; }
  /// Seconds since the span opened (0 while the recorder is disabled).
  [[nodiscard]] double elapsed() const noexcept {
    return r_.span == 0 ? 0.0 : SpanRecorder::instance().now() - r_.start;
  }

 private:
  SpanRecord r_;
};

}  // namespace swft::e2e
