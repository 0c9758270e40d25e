// RAII spans over the tracer, and the per-thread "current span" stack.
//
// A Span names one timed unit of work — a module run, a batch flush, a
// server-side request, a correlation pass. Creating one allocates a
// SpanContext: a fresh trace root when nothing is active, a child of the
// thread's current span otherwise, or a child of an explicit remote parent
// (the context a wire frame carried — that is how one trace crosses the
// Journal protocol). Ending it records a single completion event into the
// tracer, stamped with the span's context and sim-time duration. A span that
// is destroyed without End() records nothing — abandoned work leaves no
// misleading "completed" event.
//
// A span is named by a SpanName (src/telemetry/names.h): one of the names::
// constants, or SpanName::ModuleRun(key) for a module run. A string literal
// does not convert to SpanName, so an ad-hoc span name fails to compile.
//
// Currency: by default a Span pushes itself onto the calling thread's
// current-span stack for its C++ scope, so nested Record()/Span creation
// attributes to it. Work that outlives the constructing scope (a module run
// whose probes fire from the event queue) passes make_current = false and
// re-activates its context where it actually executes via CurrentSpanScope —
// the ExplorerModule driver does this inside every guarded event.

#ifndef SRC_TELEMETRY_SPAN_H_
#define SRC_TELEMETRY_SPAN_H_

#include <string>

#include "src/telemetry/names.h"
#include "src/telemetry/trace.h"
#include "src/util/sim_time.h"

namespace fremont::telemetry {

// The innermost active span context this thread holds for `tracer`, or the
// zero context. This is what Tracer::Record() tags point events with, and
// what the Journal client encodes into outgoing v2 frames.
SpanContext CurrentSpanContext(const Tracer& tracer);

class Span {
 public:
  // Opens a span starting at `start`. Parentage: `remote_parent` if valid
  // (wire-propagated context), else the thread's current span for `tracer`,
  // else a fresh trace root. With make_current the span stays the thread's
  // innermost span until End() or destruction, whichever comes first.
  explicit Span(SpanName name, SimTime start, Tracer& tracer = Tracer::Global(),
                const SpanContext& remote_parent = SpanContext{}, bool make_current = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Optional start marker: a point event at the span's start time, tagged
  // with the span's context (module runs record kModuleRunStart this way so
  // a wrapped ring still shows long-running spans that have not ended).
  void RecordStart(TraceEventKind kind, std::string detail = "");

  // Closes the span: records one completion event (at = start time,
  // duration = at - start, clamped non-negative) and deactivates it.
  // Idempotent; calls after the first are ignored.
  void End(TraceEventKind kind, SimTime at, std::string detail = "");

  const SpanContext& context() const { return ctx_; }
  SimTime start_time() const { return start_; }
  // Sim-time duration observed by End(); -1 until then.
  int64_t duration_us() const { return duration_us_; }
  bool ended() const { return ended_; }

 private:
  Tracer* tracer_;
  std::string name_;
  SimTime start_;
  SpanContext ctx_;
  int64_t duration_us_ = -1;
  bool ended_ = false;
  bool current_ = false;  // On this thread's stack right now.
};

// Re-activates an existing span context for a scope: Record() calls and
// child spans on this thread attribute to `ctx` until destruction. A zero
// ctx is a no-op scope. This is the bridge between RAII currency and
// event-queue execution (see the header comment).
class CurrentSpanScope {
 public:
  CurrentSpanScope(Tracer& tracer, const SpanContext& ctx);
  ~CurrentSpanScope();
  CurrentSpanScope(const CurrentSpanScope&) = delete;
  CurrentSpanScope& operator=(const CurrentSpanScope&) = delete;

 private:
  const Tracer* tracer_;
  uint64_t span_id_ = 0;  // 0 = nothing pushed.
};

namespace internal {
// The thread-local stack itself; exposed for the Span/CurrentSpanScope
// implementations only.
void PushActiveSpan(const Tracer* tracer, const SpanContext& ctx);
void PopActiveSpan(const Tracer* tracer, uint64_t span_id);
}  // namespace internal

}  // namespace fremont::telemetry

#endif  // SRC_TELEMETRY_SPAN_H_
