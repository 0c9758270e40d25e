// Probe tracer: causal spans and structured events over the discovery
// pipeline.
//
// Where the metrics registry answers "how many", the tracer answers "in what
// order, when (sim-time), and *because of what*": module run start/end,
// individual probes and matched replies, Journal RPCs, correlation passes,
// schedule decisions. Every event may carry a SpanContext — a
// (trace_id, span_id, parent_span_id) triple — so a probe, the batch flush
// that carried its observation, the server-side store, the changelog delta
// and the correlation pass that consumed it all share one trace_id. Span
// creation and the per-thread "current span" stack live in
// src/telemetry/span.h; Record() attaches the calling thread's current span
// automatically, so existing flat call sites become causally tagged with no
// change.
//
// Events land in a fixed-capacity ring buffer (old events are overwritten —
// the tail of a long run is what debugging needs).
//
// Thread safety: the ring is guarded by a mutex (FREMONT_GUARDED_BY below —
// the annotations, not comments, are the contract), `enabled` and the id
// allocators are atomics, so concurrent Record() calls from the sharded
// event runtime are safe. The enabled check stays a lock-free fast path for
// the disabled-per-probe-recording case.

#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/sim_time.h"
#include "src/util/thread_annotations.h"

namespace fremont::telemetry {

enum class TraceEventKind : uint8_t {
  kModuleRunStart = 0,
  kModuleRunEnd = 1,
  kProbeSent = 2,
  kReplyMatched = 3,
  kJournalRpc = 4,
  kCorrelationPass = 5,
  kScheduleDecision = 6,
  kChangelogDelta = 7,  // A delta read served entries this trace produced.
  kManagerTick = 8,     // One Discovery Manager tick (the per-tick root span).
  kShardRun = 9,        // One shard's share of a parallel runtime drive call.
  kServeRefresh = 10,   // One serving-layer refresh (tail + rebuild + push).
};

const char* TraceEventKindName(TraceEventKind kind);

// Identity of a span: which trace it belongs to, which span it is, and which
// span caused it. trace_id == 0 means "no span" — the zero context is what
// flat events carry and what v1 wire frames decode to.
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = trace root.

  bool valid() const { return trace_id != 0; }
};

struct TraceEvent {
  SimTime at;
  TraceEventKind kind = TraceEventKind::kModuleRunStart;
  std::string module;  // Metric-family key, e.g. "seqping", "journal_client".
  std::string detail;  // Free-form: target address, op name, decision.
  // Causal tags. A zero ctx means the event was recorded outside any span.
  SpanContext ctx;
  // Span completion events carry the span's sim-time duration; -1 for point
  // events. For a completion event `at` is the span's *start* time, so
  // (at, at + duration_us) is the span's interval.
  int64_t duration_us = -1;
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  // The process-wide tracer everything records into by default.
  static Tracer& Global();

  explicit Tracer(size_t capacity = kDefaultCapacity);

  // Records a point event tagged with the calling thread's current span (see
  // span.h) — existing flat call sites gain causal context for free.
  void Record(SimTime at, TraceEventKind kind, std::string module, std::string detail = "")
      FREMONT_EXCLUDES(mutex_);

  // Records an event with an explicit span context and duration (span
  // completions; synthesized provenance events like kChangelogDelta).
  void RecordSpan(SimTime at, TraceEventKind kind, std::string module, std::string detail,
                  const SpanContext& ctx, int64_t duration_us) FREMONT_EXCLUDES(mutex_);

  // Allocates ids for new traces/spans. Plain counters: deterministic under
  // a single thread, unique under many.
  uint64_t NewTraceId() { return next_trace_id_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t NewSpanId() { return next_span_id_.fetch_add(1, std::memory_order_relaxed); }

  // Disabled tracers drop events at the call site (per-probe recording in a
  // large sweep is the hot case).
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }
  // Total events ever recorded (>= Events().size() once the ring wraps).
  uint64_t recorded_count() const { return recorded_.load(std::memory_order_relaxed); }
  uint64_t dropped_count() const {
    const uint64_t recorded = recorded_count();
    return recorded > capacity_ ? recorded - capacity_ : 0;
  }

  // The retained events, oldest first.
  std::vector<TraceEvent> Events() const FREMONT_EXCLUDES(mutex_);

  // Empties the ring buffer and zeroes the recorded count.
  void Clear() FREMONT_EXCLUDES(mutex_);

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  mutable Mutex mutex_;
  std::vector<TraceEvent> ring_ FREMONT_GUARDED_BY(mutex_);
  // Ring slot the next event lands in.
  size_t next_ FREMONT_GUARDED_BY(mutex_) = 0;
};

}  // namespace fremont::telemetry

#endif  // SRC_TELEMETRY_TRACE_H_
