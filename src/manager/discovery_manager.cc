#include "src/manager/discovery_manager.h"

#include <algorithm>

#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace fremont {
namespace {

int64_t TotalRecords(JournalClient* journal) {
  if (journal == nullptr) {
    return 0;
  }
  const JournalStats stats = journal->GetStats();
  return static_cast<int64_t>(stats.interface_count) +
         static_cast<int64_t>(stats.gateway_count) + static_cast<int64_t>(stats.subnet_count);
}

}  // namespace

DiscoveryManager::DiscoveryManager(EventQueue* events, JournalClient* journal)
    : events_(events), journal_(journal) {}

void DiscoveryManager::RegisterModule(ModuleRegistration registration) {
  ModuleState state;
  state.schedule.name = registration.name;
  state.schedule.min_interval = registration.min_interval;
  state.schedule.max_interval = registration.max_interval;
  state.schedule.current_interval = registration.min_interval;
  state.registration = std::move(registration);
  modules_.push_back(std::move(state));
}

void DiscoveryManager::RestoreSchedule(const std::vector<ModuleSchedule>& history) {
  for (auto& state : modules_) {
    for (const auto& restored : history) {
      if (restored.name == state.schedule.name) {
        state.schedule = restored;
        // A last_run in the future means the history came from a different
        // clock epoch (e.g. the machine's clock was set back); treat the
        // module as never run rather than deferring it indefinitely.
        if (state.schedule.last_run > events_->Now()) {
          state.schedule.ever_run = false;
          state.schedule.last_run = SimTime::Epoch();
        }
        break;
      }
    }
  }
}

std::vector<ModuleSchedule> DiscoveryManager::ExportSchedule() const {
  std::vector<ModuleSchedule> out;
  out.reserve(modules_.size());
  for (const auto& state : modules_) {
    out.push_back(state.schedule);
  }
  return out;
}

std::optional<SimTime> DiscoveryManager::NextDue() const {
  std::optional<SimTime> earliest;
  for (const auto& state : modules_) {
    const SimTime due = state.schedule.NextDue();
    if (!earliest.has_value() || due < *earliest) {
      earliest = due;
    }
  }
  return earliest;
}

void DiscoveryManager::LaunchModule(ModuleState& state, std::vector<ExplorerReport>* reports) {
  FLOG(kInfo) << "manager: running " << state.schedule.name << " at "
              << events_->Now().ToString();
  std::unique_ptr<ExplorerModule> module = state.registration.make();
  if (module == nullptr) {
    FLOG(kError) << "manager: factory for " << state.schedule.name
                 << " returned no module; skipping this run";
    // Stamp the schedule anyway: leaving the module due at this same instant
    // would make RunUntil() loop forever on a persistently failing factory.
    state.schedule.last_run = events_->Now();
    state.schedule.ever_run = true;
    return;
  }
  if (in_flight_ == 0) {
    // Fresh completion boundary: growth before this point (e.g. Correlate
    // between ticks) is not attributable to any module run.
    growth_baseline_ = TotalRecords(journal_);
  }
  running_.push_back(std::move(module));
  ExplorerModule* launched = running_.back().get();
  ++in_flight_;
  telemetry::MetricsRegistry::Global().GetGauge(telemetry::names::kManagerModulesInFlight)->Set(in_flight_);
  // The completion callback may fire synchronously (degenerate runs) or many
  // sim-minutes later; `state` and `reports` outlive the tick either way.
  launched->Start(
      [this, &state, reports](const ExplorerReport& report) { FinishModule(state, report, reports); });
}

void DiscoveryManager::FinishModule(ModuleState& state, const ExplorerReport& report,
                                    std::vector<ExplorerReport>* reports) {
  reports->push_back(report);
  ++state.runs;
  --in_flight_;
  telemetry::MetricsRegistry::Global().GetGauge(telemetry::names::kManagerModulesInFlight)->Set(in_flight_);
  if (journal_ != nullptr) {
    // Growth since the previous completion boundary. With overlapping runs
    // this charges each completion the records landed since the one before
    // it — exact for serial ticks, completion-order attribution otherwise.
    const int64_t now_total = TotalRecords(journal_);
    state.last_journal_growth = static_cast<int>(now_total - growth_baseline_);
    growth_baseline_ = now_total;
  }

  // Fruitfulness-based interval adaptation, driven by *new* information
  // (created or changed records). Re-verifying what the Journal already
  // knows is the paper's "that was true before the module was last invoked"
  // case: it must not shorten the interval.
  ModuleSchedule& sched = state.schedule;
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.GetCounter(telemetry::names::kManagerModuleRuns)->Increment();
  metrics
      .GetHistogram(telemetry::names::kManagerFruitfulness,
                    {0, 1, 2, 5, 10, 20, 50, 100})
      ->Observe(std::max(0, report.new_info));
  const Duration before_interval = sched.current_interval;
  if (report.new_info > 0) {
    sched.current_interval = std::max(sched.min_interval, sched.current_interval / 2);
  } else {
    sched.current_interval = std::min(sched.max_interval, sched.current_interval * 2);
  }
  if (sched.current_interval < before_interval) {
    metrics.GetCounter(telemetry::names::kManagerIntervalShortened)->Increment();
  } else if (sched.current_interval > before_interval) {
    metrics.GetCounter(telemetry::names::kManagerIntervalLengthened)->Increment();
  } else {
    metrics.GetCounter(telemetry::names::kManagerIntervalHeld)->Increment();
  }
  auto& tracer = telemetry::Tracer::Global();
  if (tracer.enabled()) {
    tracer.Record(events_->Now(), telemetry::TraceEventKind::kScheduleDecision,
                  sched.name,
                  StringPrintf("new_info=%d interval %s -> %s", report.new_info,
                               before_interval.ToString().c_str(),
                               sched.current_interval.ToString().c_str()));
  }
  sched.last_discovered = report.discovered;
  sched.last_run = events_->Now();
  sched.ever_run = true;
}

size_t DiscoveryManager::BeginTick(std::vector<ExplorerReport>* reports) {
  return LaunchDue(reports, /*drive_each=*/false);
}

size_t DiscoveryManager::LaunchDue(std::vector<ExplorerReport>* reports, bool drive_each) {
  telemetry::MetricsRegistry::Global().GetCounter(telemetry::names::kManagerTicks)->Increment();
  const SimTime now = events_->Now();
  std::vector<ModuleState*> due;
  for (auto& state : modules_) {
    if (state.schedule.NextDue() <= now) {
      due.push_back(&state);
    }
  }
  if (due.empty()) {
    return 0;
  }

  // The tick's root span: module launches below inherit it (their run spans
  // parent on the current span at Start()), and so does the correlation
  // update — one trace covers everything this tick caused. Not current by
  // RAII: the tick stays open across BeginTick's return, so currency is
  // scoped explicitly to the launch loop (and EndTick re-activates it).
  tick_span_.emplace(telemetry::names::kSpanManagerTick, now, telemetry::Tracer::Global(),
                     telemetry::SpanContext{}, /*make_current=*/false);
  tick_launched_ = due.size();

  // Cooperative launch: every due module schedules its probes into the same
  // event-queue pass (or, under the sharded runtime, onto its home shard's
  // queue), overlapping their reply/timeout waits. Serial mode runs each
  // module to completion before launching the next.
  if (!drive_each && due.size() >= 2) {
    telemetry::MetricsRegistry::Global().GetCounter(telemetry::names::kManagerConcurrentRuns)->Increment();
  }
  const telemetry::CurrentSpanScope scope(telemetry::Tracer::Global(), tick_span_->context());
  for (ModuleState* state : due) {
    LaunchModule(*state, reports);
    if (drive_each) {
      events_->RunWhile([this]() { return in_flight_ > 0; });
    }
  }
  return due.size();
}

void DiscoveryManager::EndTick() {
  if (!tick_span_.has_value()) {
    return;  // No open tick (BeginTick found nothing due).
  }
  if (in_flight_ > 0) {
    FLOG(kError) << "manager: EndTick() with " << in_flight_
                 << " modules still in flight; reports will be incomplete";
  }
  // All completion callbacks have fired; retire the spent instances.
  running_.clear();

  if (correlation_.has_value() && journal_ != nullptr) {
    // Fold what this tick changed into the persistent correlation state.
    // Runs after the growth attribution above, so its own gateway writes are
    // excluded from module growth by the baseline reset in LaunchModule().
    const telemetry::CurrentSpanScope scope(telemetry::Tracer::Global(), tick_span_->context());
    last_correlation_ = correlation_->Update(*journal_, events_->Now());
  }
  tick_span_->End(telemetry::TraceEventKind::kManagerTick, events_->Now(),
                  StringPrintf("modules=%zu", tick_launched_));
  tick_span_.reset();
  tick_launched_ = 0;
}

std::vector<ExplorerReport> DiscoveryManager::Tick() {
  std::vector<ExplorerReport> reports;
  // Serial mode has already driven each module to completion; the drive
  // below then finds nothing in flight.
  if (LaunchDue(&reports, serial_) > 0) {
    events_->RunWhile([this]() { return in_flight_ > 0; });
  }
  EndTick();
  return reports;
}

std::vector<ExplorerReport> DiscoveryManager::RunUntil(SimTime deadline) {
  std::vector<ExplorerReport> reports;
  while (true) {
    const std::optional<SimTime> due = NextDue();
    if (!due.has_value()) {
      // No modules registered: nothing will ever become due, so driving the
      // clock to the deadline would just spin. Documented no-op.
      return reports;
    }
    if (*due > deadline) {
      // Nothing more scheduled inside the window; let the network idle on.
      events_->RunUntil(deadline);
      break;
    }
    if (*due > events_->Now()) {
      events_->RunUntil(*due);
    }
    auto batch = Tick();
    reports.insert(reports.end(), batch.begin(), batch.end());
    if (events_->Now() >= deadline) {
      break;
    }
  }
  return reports;
}

}  // namespace fremont
