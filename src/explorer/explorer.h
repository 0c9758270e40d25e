// Common Explorer Module machinery.
//
// Every module runs from a vantage Host inside the simulation, writes its
// findings to the Journal through a JournalClient (full wire protocol), and
// produces an ExplorerReport with the cost/effectiveness numbers the paper's
// Tables 4-6 are built from. The ExplorerModule base owns the vantage
// plumbing every module shares: the counted send path behind packets_sent,
// the listener/binding/tap registrations and their teardown, and the one
// Journal writer.
//
// Modules share one cooperative, non-blocking lifecycle (ExplorerModule):
// Start(done) schedules the module's own probe/timeout events on the event
// queue and returns immediately; when the module's work completes, or a
// caller Cancel()s it, its end-of-run hook writes what it gathered and the
// completion callback receives the final report. Nothing blocks, so the
// Discovery Manager can launch every due module into a single event-queue
// pass and overlap their probe waits. The blocking Run() wrapper drives the
// queue until completion for callers that want the old synchronous shape.

#ifndef SRC_EXPLORER_EXPLORER_H_
#define SRC_EXPLORER_EXPLORER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/journal/batch_writer.h"
#include "src/journal/client.h"
#include "src/journal/records.h"
#include "src/sim/host.h"
#include "src/telemetry/span.h"
#include "src/util/sim_time.h"

namespace fremont {

struct ExplorerReport {
  std::string module;
  SimTime started;
  SimTime finished;
  uint64_t packets_sent = 0;     // The module's own sends the vantage accepted.
  uint64_t replies_received = 0;
  int discovered = 0;            // Primary discovery count (module-specific).
  int records_written = 0;       // Journal stores issued.
  int new_info = 0;              // Stores that created or changed a record —
                                 // the Discovery Manager's fruitfulness signal.

  Duration Elapsed() const { return finished - started; }
  std::string Summary() const;
};

// The vantage host's primary interface as a module reads it: a copy of its
// address and mask, and whether it is attached to a segment.
struct VantageInterface {
  Ipv4Address ip;
  SubnetMask mask;
  bool on_segment = false;

  Subnet AttachedSubnet() const { return Subnet(ip, mask); }
};

// The host a module runs from. A Host* converts to it, so callers pass the
// host as before. A module reads it only as values (the clock, a copy of the
// primary interface, the ARP table), and only ExplorerModule can open it: a
// module cannot keep the Host*, so it cannot schedule around
// ScheduleGuarded, and it sends and registers only through the base class
// (DESIGN.md §10, §12).
class Vantage {
 public:
  Vantage(Host* host) : host_(host) {}

  SimTime Now() const { return host_->Now(); }
  // Nullopt if the host has no interface.
  std::optional<VantageInterface> primary_interface() const {
    const Interface* iface = host_->primary_interface();
    if (iface == nullptr) {
      return std::nullopt;
    }
    return VantageInterface{iface->ip, iface->mask, iface->segment != nullptr};
  }
  // The live ARP table in ascending-IP order: what `arp -a` prints.
  std::vector<ArpCache::Entry> ArpTable() const { return host_->arp_cache().Snapshot(Now()); }

 private:
  friend class ExplorerModule;
  Host* host_;
};

// Uniform Explorer Module lifecycle. A module instance is single-shot:
//
//   idle --Start(done)--> running --Complete()--> finished
//                            |           ^
//                            +-Cancel()--+
//
// Start() stamps the report, opens the telemetry run span, and calls the
// module's StartImpl(), which schedules events and attaches listeners but
// never drives the queue. The run ends in Complete(): the module calls it
// when its last event fires (or straight from StartImpl() when there is
// nothing to do), and Cancel() calls it early. Complete() runs the module's
// Finish() hook once, then undoes the module's registrations, flushes its
// writer, closes the span, publishes the per-module counters, and invokes the
// completion callback — the callback is the last thing that touches the
// object, so it may destroy the module. Events a module leaves behind in the
// queue (e.g. probe timeouts outlived by their replies) are guarded by a
// liveness token and become no-ops once the run has completed (Complete()
// drops the token), even while the instance itself lives on. A passive
// watcher (ARPwatch, RIPwatch) runs the same way: Start() it with a `watch`
// longer than the window of interest and Cancel() it when done.
class ExplorerModule {
 public:
  using CompletionFn = std::function<void(const ExplorerReport&)>;

  // Undoes whatever registrations are left; the writer ships what it holds.
  virtual ~ExplorerModule();
  ExplorerModule(const ExplorerModule&) = delete;
  ExplorerModule& operator=(const ExplorerModule&) = delete;

  // Begins the run. Non-blocking; `done` (may be null) fires exactly once
  // with the final report, possibly synchronously for degenerate runs (no
  // vantage interface, nothing to probe).
  void Start(CompletionFn done = nullptr);

  // Ends the run early through Complete(), so the module writes what it has
  // gathered so far and the completion callback fires. No-op unless running.
  void Cancel() { Complete(); }

  // Blocking convenience: Start() and drive the event queue until the module
  // completes. The pre-refactor behaviour, kept for tests and one-off tools.
  ExplorerReport Run();

  bool running() const { return running_; }
  bool finished() const { return finished_; }
  // Telemetry/registry key, lowercase ("arpwatch", "seqping", ...).
  const std::string& key() const { return key_; }

 protected:
  // `key` names the metric family; `display_name` is the human module name
  // the paper's tables use ("ARPwatch", "SeqPing", ...). The module runs on
  // `vantage`'s event queue. A null `journal` (test fakes) gets no writer.
  ExplorerModule(std::string key, std::string display_name, Vantage vantage,
                 JournalClient* journal);

  // Module-specific startup: compute targets, attach listeners, schedule
  // events. Must arrange for Complete() to eventually run (directly for
  // degenerate cases).
  virtual void StartImpl() = 0;
  // The end-of-run hook: write what the run gathered and settle the report.
  // Complete() runs it exactly once, however the run ends, while the
  // module's registrations are still in place and before the writer is
  // flushed. Never call it directly.
  virtual void Finish() {}

  // Finalizes the run: runs Finish(), undoes the registrations, flushes the
  // writer into records_written/new_info, stamps report.finished, publishes
  // telemetry, fires the completion callback. Idempotent, and a no-op before
  // Start(); after the callback returns nothing touches the object (the
  // callback may destroy it). Not callable from inside a tap callback: it
  // removes the tap while the segment is iterating its taps.
  void Complete();

  // Schedules `fn` after `delay`; the event is dropped if the run has
  // completed (or the module has been destroyed) by the time it fires.
  // Every event a module schedules must go through this (or capture only
  // shared state), because completion no longer drains the queue before the
  // module can be destroyed.
  void ScheduleGuarded(Duration delay, std::function<void()> fn);

  // Read-only values: a module sends and registers only through the calls
  // below.
  Vantage vantage() const { return host_; }
  JournalClient* journal() const { return journal_; }
  // The module's Journal writer, stamped with the vantage clock and created
  // with the module (so its place in the client's flush order is fixed at
  // construction). Requires a journal.
  JournalBatchWriter& writer() { return *writer_; }
  ExplorerReport& mutable_report() { return report_; }

  // Counted sends: each packet the vantage accepts adds one to packets_sent.
  bool SendUdp(Ipv4Address dst, uint16_t src_port, uint16_t dst_port, ByteBuffer payload,
               uint8_t ttl = 64);
  bool SendIcmp(Ipv4Address dst, const IcmpMessage& message, uint8_t ttl = 64);

  // Registrations on the vantage and its segment. The module records each
  // one it makes; Unlisten/UnbindUdp undo one early, and Complete() and the
  // destructor undo the rest. None of them touches a registration this
  // module did not make.
  int ListenIcmp(Host::IcmpListener listener);  // Returns the token for Unlisten.
  void Unlisten(int token);
  bool BindUdp(uint16_t port, Host::UdpHandler handler);  // False if the port is taken.
  void UnbindUdp(uint16_t port);
  // Taps the vantage's segment; false, and logged, if it has none. A module
  // holds one tap, so a second Tap() replaces the first.
  bool Tap(Segment::TapFn tap);

 private:
  void Untap();
  void ReleaseRegistrations();

  std::string key_;
  Host* host_;
  JournalClient* journal_;
  std::optional<JournalBatchWriter> writer_;
  std::vector<int> icmp_listeners_;
  std::vector<uint16_t> udp_ports_;
  struct SegmentTap {
    Segment* segment;
    int token;
  };
  std::optional<SegmentTap> tap_;
  ExplorerReport report_;
  CompletionFn done_;
  bool started_ = false;
  bool running_ = false;
  bool finished_ = false;
  // Liveness token for guarded events. Atomic payload + atomic control
  // block: with the sharded runtime a leftover guarded event can fire on a
  // worker thread while Complete() retires the run elsewhere, so both the
  // flag write and the weak_ptr upgrade must be thread-safe.
  std::shared_ptr<std::atomic<bool>> alive_ = std::make_shared<std::atomic<bool>>(true);
  // The run span: opened by Start(), closed by Complete(). Not "current" by
  // RAII (the run executes from the event queue, not Start()'s scope) —
  // ScheduleGuarded re-activates it around every guarded event instead, so
  // probe traces and Journal flushes triggered mid-run land under it.
  std::optional<telemetry::Span> run_span_;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_EXPLORER_H_
