#include "src/explorer/explorer.h"

#include <algorithm>

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

namespace {

// Publishes one run's counters (<key>/runs, <key>/packets_sent,
// <key>/replies_received, <key>/discovered, <key>/records_written,
// <key>/new_info) plus the <key>/run_duration_us histogram into the global
// registry. The run's trace events come from the run span, not from here.
void RecordModuleReport(const std::string& key, const ExplorerReport& report) {
  namespace names = telemetry::names;
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetCounter(names::kModuleRuns.WithKey(key))->Increment();
  registry.GetCounter(names::kModulePacketsSent.WithKey(key))->Add(report.packets_sent);
  registry.GetCounter(names::kModuleRepliesReceived.WithKey(key))->Add(report.replies_received);
  registry.GetCounter(names::kModuleDiscovered.WithKey(key))
      ->Add(static_cast<uint64_t>(report.discovered > 0 ? report.discovered : 0));
  registry.GetCounter(names::kModuleRecordsWritten.WithKey(key))
      ->Add(static_cast<uint64_t>(report.records_written > 0 ? report.records_written : 0));
  registry.GetCounter(names::kModuleNewInfo.WithKey(key))
      ->Add(static_cast<uint64_t>(report.new_info > 0 ? report.new_info : 0));
  registry
      .GetHistogram(names::kModuleRunDurationUs.WithKey(key), telemetry::DurationBucketsMicros())
      ->Observe(report.Elapsed().ToMicros());
}

}  // namespace

ExplorerModule::ExplorerModule(std::string key, std::string display_name, Vantage vantage,
                               JournalClient* journal)
    : key_(std::move(key)), host_(vantage.host_), journal_(journal) {
  report_.module = std::move(display_name);
  if (journal_ != nullptr) {
    writer_.emplace(journal_, [host = host_]() { return host->Now(); });
  }
}

ExplorerModule::~ExplorerModule() { ReleaseRegistrations(); }

void ExplorerModule::Start(CompletionFn done) {
  if (started_) {
    FLOG(kError) << key_ << ": Start() on an already-started module instance";
    return;
  }
  started_ = true;
  running_ = true;
  done_ = std::move(done);
  report_.started = host_->Now();
  // make_current = false: the run outlives this call. The span still parents
  // on whatever is current here (the Discovery Manager's tick span), and
  // ScheduleGuarded re-activates it for each of the run's events.
  run_span_.emplace(telemetry::names::kSpanModuleRun.WithKey(key_), report_.started,
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
  ReleaseRegistrations();
  if (writer_.has_value()) {
    writer_->Flush();
  }
  report_ = CurrentReport();
  report_.finished = host_->Now();
  RecordModuleReport(key_, report_);
  if (run_span_.has_value()) {
    run_span_->End(telemetry::TraceEventKind::kModuleRunEnd, report_.finished,
                   StringPrintf("discovered=%d new=%d sent=%llu", report_.discovered,
                                report_.new_info,
                                static_cast<unsigned long long>(report_.packets_sent)));
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
  host_->events()->RunWhile([&completed]() { return !completed; });
  return result;
}

void ExplorerModule::ScheduleGuarded(Duration delay, std::function<void()> fn) {
  std::weak_ptr<std::atomic<bool>> alive = alive_;
  // The event body executes under the run span's context, so every trace
  // event and outgoing Journal frame it produces joins the module's trace.
  const telemetry::SpanContext ctx =
      run_span_.has_value() ? run_span_->context() : telemetry::SpanContext{};
  host_->events()->Schedule(delay, [alive = std::move(alive), ctx, fn = std::move(fn)]() {
    const std::shared_ptr<std::atomic<bool>> token = alive.lock();
    if (token != nullptr && token->load(std::memory_order_acquire)) {
      const telemetry::CurrentSpanScope scope(telemetry::Tracer::Global(), ctx);
      fn();
    }
  });
}

ExplorerReport ExplorerModule::CurrentReport() const {
  ExplorerReport report = report_;
  if (writer_.has_value()) {
    report.records_written = writer_->totals().records_written;
    report.new_info = writer_->totals().new_info;
  }
  return report;
}

bool ExplorerModule::SendUdp(Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                             ByteBuffer payload, uint8_t ttl) {
  // Host::SendIpPacket returns true exactly when it counts the packet as
  // sent, so the module is charged its own packets and nothing else.
  const bool sent = host_->SendUdp(dst, src_port, dst_port, std::move(payload), ttl);
  if (sent) {
    ++report_.packets_sent;
  }
  return sent;
}

bool ExplorerModule::SendIcmp(Ipv4Address dst, const IcmpMessage& message, uint8_t ttl) {
  const bool sent = host_->SendIcmp(dst, message, ttl);
  if (sent) {
    ++report_.packets_sent;
  }
  return sent;
}

int ExplorerModule::ListenIcmp(Host::IcmpListener listener) {
  const int token = host_->AddIcmpListener(std::move(listener));
  icmp_listeners_.push_back(token);
  return token;
}

void ExplorerModule::Unlisten(int token) {
  const auto it = std::find(icmp_listeners_.begin(), icmp_listeners_.end(), token);
  if (it != icmp_listeners_.end()) {
    icmp_listeners_.erase(it);
    host_->RemoveIcmpListener(token);
  }
}

bool ExplorerModule::BindUdp(uint16_t port, Host::UdpHandler handler) {
  if (!host_->BindUdp(port, std::move(handler))) {
    return false;
  }
  udp_ports_.push_back(port);
  return true;
}

void ExplorerModule::UnbindUdp(uint16_t port) {
  const auto it = std::find(udp_ports_.begin(), udp_ports_.end(), port);
  if (it != udp_ports_.end()) {
    udp_ports_.erase(it);
    host_->UnbindUdp(port);
  }
}

bool ExplorerModule::Tap(Segment::TapFn tap) {
  Interface* iface = host_->primary_interface();
  if (iface == nullptr || iface->segment == nullptr) {
    FLOG(kError) << key_ << ": vantage host has no attached segment";
    return false;
  }
  Untap();
  tap_ = SegmentTap{iface->segment, iface->segment->AddTap(std::move(tap))};
  return true;
}

void ExplorerModule::Untap() {
  if (tap_.has_value()) {
    tap_->segment->RemoveTap(tap_->token);
    tap_.reset();
  }
}

void ExplorerModule::ReleaseRegistrations() {
  for (int token : icmp_listeners_) {
    host_->RemoveIcmpListener(token);
  }
  icmp_listeners_.clear();
  for (uint16_t port : udp_ports_) {
    host_->UnbindUdp(port);
  }
  udp_ports_.clear();
  Untap();
}

}  // namespace fremont
