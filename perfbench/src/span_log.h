// Wall-clock spans recorded by the benchmark around its calls into each
// Fremont layer.
//
// A span is named "<layer>.<operation>" and carries its start and end on
// the steady clock, its parent span, the recording thread, and a trace id
// (one per campus tick, sharded sweep or serving generation). Each thread
// appends to its own buffer; buffers are read only once the recording
// threads are quiescent. A span opened on a thread with no open span of its
// own (a sharded-runtime worker storing into the Journal) nests under the
// remote parent the driving thread set, so its time is subtracted from the
// sweep that caused it.
//
// Recording is off unless enabled: end-to-end runs record nothing.

#ifndef PERFBENCH_SRC_SPAN_LOG_H_
#define PERFBENCH_SRC_SPAN_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // Static "<layer>.<operation>".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span.
  uint32_t thread = 0;
  uint64_t trace = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  static SpanLog& Global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Starts a new trace; spans opened from now on carry its id.
  void NewTrace() { trace_.fetch_add(1, std::memory_order_relaxed); }
  // Spans opened on threads with no open span nest under `id` (0 = root).
  void set_remote_parent(uint64_t id) { remote_parent_.store(id, std::memory_order_release); }

  // Opens a span on the calling thread; returns its id, or 0 when disabled.
  uint64_t Begin(const char* name);
  // Closes span `id`, which must be the calling thread's innermost open span.
  void End(uint64_t id);

  // Every closed span on every thread, ordered by start. Call only while no
  // thread is recording.
  std::vector<SpanRecord> Collect() const;
  // Drops every recorded span (thread buffers stay registered).
  void Clear();

 private:
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  // Indices into spans, innermost last.
  };
  ThreadBuffer& Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> trace_{0};
  std::atomic<uint64_t> remote_parent_{0};
  mutable std::mutex mu_;  // Guards buffers_ (the registry, not the contents).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span on the global log; a no-op while recording is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(SpanLog::Global().Begin(name)) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      SpanLog::Global().End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

// Self time of each span, parallel to `spans`: its duration minus the part
// of its interval covered by the union of its children's intervals, on
// whichever threads the children ran.
std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans);

// "<layer>" of a "<layer>.<operation>" span name.
std::string LayerOf(const char* name);

// Σ self seconds per layer.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_LOG_H_
