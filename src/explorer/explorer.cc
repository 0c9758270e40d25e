#include "src/explorer/explorer.h"

#include "src/telemetry/export.h"
#include "src/telemetry/names.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace fremont {

std::string ExplorerReport::Summary() const {
  return StringPrintf(
      "%-16s discovered=%-4d records=%-4d new=%-4d sent=%-5llu replies=%-5llu elapsed=%s",
      module.c_str(), discovered, records_written, new_info,
      static_cast<unsigned long long>(packets_sent),
      static_cast<unsigned long long>(replies_received), Elapsed().ToString().c_str());
}

ExplorerModule::ExplorerModule(std::string key, std::string display_name, EventQueue* events,
                               JournalClient* journal)
    : key_(std::move(key)), events_(events), journal_(journal) {
  report_.module = std::move(display_name);
}

void ExplorerModule::Start(CompletionFn done) {
  if (started_) {
    FLOG(kError) << key_ << ": Start() on an already-started module instance";
    return;
  }
  started_ = true;
  running_ = true;
  done_ = std::move(done);
  report_.started = events_->Now();
  // make_current = false: the run outlives this call. The span still parents
  // on whatever is current here (the Discovery Manager's tick span), and
  // ScheduleGuarded re-activates it for each of the run's events.
  run_span_.emplace(telemetry::SpanName::ModuleRun(key_), report_.started,
                    telemetry::Tracer::Global(), telemetry::SpanContext{},
                    /*make_current=*/false);
  run_span_->RecordStart(telemetry::TraceEventKind::kModuleRunStart);
  const telemetry::CurrentSpanScope scope(telemetry::Tracer::Global(), run_span_->context());
  StartImpl();
}

void ExplorerModule::Cancel() {
  if (!running_) {
    return;
  }
  CancelImpl();
  Complete();
}

void ExplorerModule::Complete() {
  if (finished_ || !started_) {
    return;
  }
  running_ = false;
  finished_ = true;
  // Drop the liveness token now, not at destruction: a module that finishes
  // (or is Cancel()ed) while peers are still driving the queue may outlive
  // its run, and its leftover guarded events (probe sends, timeouts) must
  // not fire after the report has been published. The flag flips first so
  // even a holder that already upgraded its weak_ptr observes the kill.
  alive_->store(false, std::memory_order_release);
  alive_.reset();
  report_.finished = events_->Now();
  RecordModuleReport(key_.c_str(), report_);
  if (run_span_.has_value()) {
    run_span_->End(telemetry::TraceEventKind::kModuleRunEnd, report_.finished,
                   StringPrintf("discovered=%d new=%d sent=%llu", report_.discovered,
                                report_.new_info,
                                static_cast<unsigned long long>(report_.packets_sent)));
    telemetry::MetricsRegistry::Global()
        .GetHistogram(std::string(telemetry::names::kModuleRunLatencyUsPrefix) + key_,
                      telemetry::DurationBucketsMicros())
        ->Observe(run_span_->duration_us());
    run_span_.reset();
  }
  CompletionFn done = std::move(done_);
  done_ = nullptr;
  if (done) {
    // Snapshot first: the callback may destroy this module, so nothing may
    // touch members once it runs.
    const ExplorerReport snapshot = report_;
    done(snapshot);
  }
}

ExplorerReport ExplorerModule::Run() {
  bool completed = false;
  ExplorerReport result;
  Start([&completed, &result](const ExplorerReport& report) {
    result = report;
    completed = true;
  });
  events_->RunWhile([&completed]() { return !completed; });
  return result;
}

void ExplorerModule::ScheduleGuarded(Duration delay, std::function<void()> fn) {
  std::weak_ptr<std::atomic<bool>> alive = alive_;
  // The event body executes under the run span's context, so every trace
  // event and outgoing Journal frame it produces joins the module's trace.
  const telemetry::SpanContext ctx =
      run_span_.has_value() ? run_span_->context() : telemetry::SpanContext{};
  events_->Schedule(delay, [alive = std::move(alive), ctx, fn = std::move(fn)]() {
    const std::shared_ptr<std::atomic<bool>> token = alive.lock();
    if (token != nullptr && token->load(std::memory_order_acquire)) {
      const telemetry::CurrentSpanScope scope(telemetry::Tracer::Global(), ctx);
      fn();
    }
  });
}

void RecordModuleReport(const char* key, const ExplorerReport& report) {
  auto& registry = telemetry::MetricsRegistry::Global();
  const std::string prefix(key);
  registry.GetCounter(prefix + telemetry::names::kSuffixRuns)->Increment();
  registry.GetCounter(prefix + telemetry::names::kSuffixPacketsSent)->Add(report.packets_sent);
  registry.GetCounter(prefix + telemetry::names::kSuffixRepliesReceived)->Add(report.replies_received);
  registry.GetCounter(prefix + telemetry::names::kSuffixDiscovered)
      ->Add(static_cast<uint64_t>(report.discovered > 0 ? report.discovered : 0));
  registry.GetCounter(prefix + telemetry::names::kSuffixRecordsWritten)
      ->Add(static_cast<uint64_t>(report.records_written > 0 ? report.records_written : 0));
  registry.GetCounter(prefix + telemetry::names::kSuffixNewInfo)
      ->Add(static_cast<uint64_t>(report.new_info > 0 ? report.new_info : 0));
  registry.GetHistogram(prefix + telemetry::names::kSuffixRunDurationUs, telemetry::DurationBucketsMicros())
      ->Observe(report.Elapsed().ToMicros());
}

}  // namespace fremont
