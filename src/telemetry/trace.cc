#include "src/telemetry/trace.h"

#include "src/telemetry/span.h"

namespace fremont::telemetry {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kModuleRunStart:
      return "module_run_start";
    case TraceEventKind::kModuleRunEnd:
      return "module_run_end";
    case TraceEventKind::kProbeSent:
      return "probe_sent";
    case TraceEventKind::kReplyMatched:
      return "reply_matched";
    case TraceEventKind::kJournalRpc:
      return "journal_rpc";
    case TraceEventKind::kCorrelationPass:
      return "correlation_pass";
    case TraceEventKind::kScheduleDecision:
      return "schedule_decision";
    case TraceEventKind::kChangelogDelta:
      return "changelog_delta";
    case TraceEventKind::kManagerTick:
      return "manager_tick";
    case TraceEventKind::kShardRun:
      return "shard_run";
    case TraceEventKind::kServeRefresh:
      return "serve_refresh";
  }
  return "?";
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void Tracer::Record(SimTime at, TraceEventKind kind, std::string module, std::string detail) {
  RecordSpan(at, kind, std::move(module), std::move(detail), CurrentSpanContext(*this),
             /*duration_us=*/-1);
}

void Tracer::RecordSpan(SimTime at, TraceEventKind kind, std::string module, std::string detail,
                        const SpanContext& ctx, int64_t duration_us) {
  if (!enabled()) {
    return;
  }
  const MutexLock lock(mutex_);
  TraceEvent& slot = ring_[next_];
  slot.at = at;
  slot.kind = kind;
  slot.module = std::move(module);
  slot.detail = std::move(detail);
  slot.ctx = ctx;
  slot.duration_us = duration_us;
  next_ = (next_ + 1) % capacity_;
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> Tracer::Events() const {
  const MutexLock lock(mutex_);
  std::vector<TraceEvent> out;
  const uint64_t recorded = recorded_.load(std::memory_order_relaxed);
  const size_t retained = recorded < capacity_ ? static_cast<size_t>(recorded) : capacity_;
  out.reserve(retained);
  // Oldest retained event: `next_` once wrapped, slot 0 before that.
  const size_t start = recorded < capacity_ ? 0 : next_;
  for (size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void Tracer::Clear() {
  const MutexLock lock(mutex_);
  for (auto& slot : ring_) {
    slot = TraceEvent{};
  }
  next_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
}

}  // namespace fremont::telemetry
