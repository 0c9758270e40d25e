// Discovery Manager: decides what to collect and which Explorer Modules to
// invoke, adapting each module's invocation interval to how fruitful its
// last run was.
//
// Adaptation rule (paper: "if the Discovery Manager sees that 20 of 400
// interfaces recorded in the Journal do not have subnet masks and that this
// was true before the module was last invoked, then the Discovery Manager
// will not shorten the interval until the next invocation"): a run that
// discovers more than the previous run halves the interval (floored at the
// module's minimum); a run that discovers nothing new doubles it (capped at
// the maximum). "This ensures that the resulting exploration effort is as
// fruitful as possible."
//
// Modules launch through the cooperative ExplorerModule lifecycle: a Tick
// starts every due module into a single event-queue pass and drives the
// queue until all of them have completed, overlapping their probe waits
// (concurrent mode, the default). set_serial(true) restores the historical
// one-module-at-a-time order for A/B comparison.

#ifndef SRC_MANAGER_DISCOVERY_MANAGER_H_
#define SRC_MANAGER_DISCOVERY_MANAGER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/journal/client.h"
#include "src/manager/correlate.h"
#include "src/manager/schedule.h"
#include "src/sim/event_queue.h"
#include "src/telemetry/span.h"

namespace fremont {

struct ModuleRegistration {
  std::string name;
  Duration min_interval;
  Duration max_interval;
  // Builds a fresh single-shot module instance for each run; the manager
  // Start()s it and owns it until it completes.
  std::function<std::unique_ptr<ExplorerModule>()> make;
};

class DiscoveryManager {
 public:
  DiscoveryManager(EventQueue* events, JournalClient* journal);

  // Registers a module; if `restored` carries history for this name (from
  // the startup/history file), it seeds the schedule.
  void RegisterModule(ModuleRegistration registration);
  void RestoreSchedule(const std::vector<ModuleSchedule>& history);
  std::vector<ModuleSchedule> ExportSchedule() const;

  // Launches every currently due module and drives the event queue until all
  // of them complete. Returns their reports in completion order.
  std::vector<ExplorerReport> Tick();

  // Split-phase tick for external drivers (the sharded runtime's parallel
  // sweep): BeginTick() launches every due module into the queue and returns
  // how many were due, without driving anything; the caller runs the
  // queue(s) until in_flight() drops to zero, then EndTick() retires the
  // spent instances, folds correlation, and closes the tick span. Reports
  // accumulate into `*reports`, which must outlive the whole tick.
  // Tick() (concurrent mode) is exactly BeginTick + drive + EndTick.
  size_t BeginTick(std::vector<ExplorerReport>* reports);
  void EndTick();
  int in_flight() const { return in_flight_; }

  // Runs the scheduling loop until `deadline`: advances simulated time to
  // each next-due instant and ticks. Returns all reports. With no modules
  // registered this is a documented no-op: it returns immediately without
  // advancing the simulated clock.
  std::vector<ExplorerReport> RunUntil(SimTime deadline);
  std::vector<ExplorerReport> RunFor(Duration duration) {
    return RunUntil(events_->Now() + duration);
  }

  // Earliest next-due time across modules (Epoch if something is due now);
  // nullopt when no modules are registered.
  std::optional<SimTime> NextDue() const;

  // Historical one-module-at-a-time launch order (each due module runs to
  // completion before the next starts). Default is concurrent.
  void set_serial(bool serial) { serial_ = serial; }
  bool serial() const { return serial_; }

  // Opt-in: after each tick that ran at least one module, fold the tick's
  // Journal changes into a persistent CorrelationState (an incremental
  // correlation pass — O(changed records), not O(journal)). Off by default
  // so callers that meter journal growth per module keep exact attribution.
  void EnableAutoCorrelation(int assumed_prefix = 24) {
    correlation_.emplace(assumed_prefix);
  }
  // Report from the most recent auto-correlation pass (empty before one ran).
  const CorrelationReport& last_correlation() const { return last_correlation_; }
  // The persistent state itself, for tests and tools. Requires
  // EnableAutoCorrelation() to have been called.
  CorrelationState& correlation_state() { return *correlation_; }

  struct ModuleState {
    ModuleRegistration registration;
    ModuleSchedule schedule;
    int runs = 0;
    // Journal growth attributable to the module's last run (records of any
    // kind created), measured through the manager's JournalClient.
    int last_journal_growth = 0;
  };
  const std::deque<ModuleState>& modules() const { return modules_; }

 private:
  // Starts `state`'s module; FinishModule() runs from its completion
  // callback (adaptation, schedule stamping, telemetry).
  void LaunchModule(ModuleState& state, std::vector<ExplorerReport>* reports);
  void FinishModule(ModuleState& state, const ExplorerReport& report,
                    std::vector<ExplorerReport>* reports);

  EventQueue* events_;
  JournalClient* journal_;
  // Deque, not vector: in-flight completion callbacks and Tick's due-list
  // hold ModuleState references across event-queue activity, and a deque
  // keeps them valid if RegisterModule() grows the set mid-run.
  std::deque<ModuleState> modules_;
  bool serial_ = false;
  // Modules mid-run during a Tick. Completed instances stay here (their
  // completion callback must not destroy them) until the tick retires them.
  std::vector<std::unique_ptr<ExplorerModule>> running_;
  int in_flight_ = 0;
  // Journal record count at the previous completion boundary, for growth
  // attribution when runs overlap: each completion is charged the growth
  // since the one before it.
  int64_t growth_baseline_ = 0;
  // Engaged by EnableAutoCorrelation(); updated after each fruitful tick.
  std::optional<CorrelationState> correlation_;
  CorrelationReport last_correlation_;
  // Open tick bookkeeping for the split-phase API: the tick's root span
  // (engaged from BeginTick with due work until EndTick) and how many
  // modules that tick launched.
  std::optional<telemetry::Span> tick_span_;
  size_t tick_launched_ = 0;
};

}  // namespace fremont

#endif  // SRC_MANAGER_DISCOVERY_MANAGER_H_
