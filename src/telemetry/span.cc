#include "src/telemetry/span.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace fremont::telemetry {
namespace {

struct ActiveSpan {
  const Tracer* tracer;
  SpanContext ctx;
};

// Per-thread stack of active spans, across all tracers (entries are filtered
// by tracer on lookup, so a unit test's private Tracer never sees spans of
// the global one). Thread-local, so no locking — a span is only ever current
// on the thread that activated it.
thread_local std::vector<ActiveSpan> t_active_spans;

}  // namespace

SpanContext CurrentSpanContext(const Tracer& tracer) {
  for (auto it = t_active_spans.rbegin(); it != t_active_spans.rend(); ++it) {
    if (it->tracer == &tracer) {
      return it->ctx;
    }
  }
  return SpanContext{};
}

namespace internal {

void PushActiveSpan(const Tracer* tracer, const SpanContext& ctx) {
  t_active_spans.push_back(ActiveSpan{tracer, ctx});
}

void PopActiveSpan(const Tracer* tracer, uint64_t span_id) {
  // Pop by identity, not position: cooperative scheduling can interleave span
  // lifetimes, so the entry being removed is not always the top.
  for (auto it = t_active_spans.rbegin(); it != t_active_spans.rend(); ++it) {
    if (it->tracer == tracer && it->ctx.span_id == span_id) {
      t_active_spans.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace internal

Span::Span(SpanName name, SimTime start, Tracer& tracer, const SpanContext& remote_parent,
           bool make_current)
    : tracer_(&tracer), name_(name.c_str()), start_(start) {
  const SpanContext parent =
      remote_parent.valid() ? remote_parent : CurrentSpanContext(tracer);
  ctx_.trace_id = parent.valid() ? parent.trace_id : tracer.NewTraceId();
  ctx_.span_id = tracer.NewSpanId();
  ctx_.parent_span_id = parent.valid() ? parent.span_id : 0;
  if (make_current) {
    internal::PushActiveSpan(tracer_, ctx_);
    current_ = true;
  }
}

Span::~Span() {
  if (current_) {
    internal::PopActiveSpan(tracer_, ctx_.span_id);
    current_ = false;
  }
}

void Span::RecordStart(TraceEventKind kind, std::string detail) {
  tracer_->RecordSpan(start_, kind, name_, std::move(detail), ctx_, /*duration_us=*/-1);
}

void Span::End(TraceEventKind kind, SimTime at, std::string detail) {
  if (ended_) {
    return;
  }
  ended_ = true;
  duration_us_ = std::max<int64_t>(0, (at - start_).ToMicros());
  if (current_) {
    internal::PopActiveSpan(tracer_, ctx_.span_id);
    current_ = false;
  }
  tracer_->RecordSpan(start_, kind, name_, std::move(detail), ctx_, duration_us_);
}

CurrentSpanScope::CurrentSpanScope(Tracer& tracer, const SpanContext& ctx) : tracer_(&tracer) {
  if (ctx.valid()) {
    internal::PushActiveSpan(tracer_, ctx);
    span_id_ = ctx.span_id;
  }
}

CurrentSpanScope::~CurrentSpanScope() {
  if (span_id_ != 0) {
    internal::PopActiveSpan(tracer_, span_id_);
  }
}

}  // namespace fremont::telemetry
