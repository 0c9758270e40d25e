// Discrete-event scheduler: the simulated network's heartbeat.
//
// All protocol timing — ARP cache timeouts, ping intervals, RIP periods,
// traceroute timeouts, 24-hour passive watches — runs against this virtual
// clock, so experiments that took the paper's authors days complete in
// milliseconds while preserving every timing relationship.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/util/sim_time.h"

namespace fremont {

class EventQueue {
 public:
  using Action = std::function<void()>;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `action` to run at the given absolute time (clamped to now).
  void ScheduleAt(SimTime when, Action action);
  // Schedules `action` to run after `delay`.
  void Schedule(Duration delay, Action action) { ScheduleAt(now_ + delay, std::move(action)); }

  bool Empty() const { return queue_.empty(); }
  size_t PendingCount() const { return queue_.size(); }

  // Timestamp of the earliest pending event; nullopt when the queue is empty.
  // The sharded runtime uses this to pick each synchronization window's start.
  std::optional<SimTime> NextEventTime() const {
    if (queue_.empty()) {
      return std::nullopt;
    }
    return queue_.top().when;
  }

  // Advances the clock without running anything (never moves it backwards).
  // Window barriers use this to keep idle shards' clocks aligned with the
  // active ones, so a later cross-shard delivery clamps against the right now.
  void AdvanceTo(SimTime to) {
    if (now_ < to) {
      now_ = to;
    }
  }

  // Runs the next event; returns false if the queue is empty.
  bool Step();

  // Runs all events scheduled at or before `deadline`, then advances the
  // clock to `deadline` (even if no event lands exactly there).
  void RunUntil(SimTime deadline);
  void RunFor(Duration duration) { RunUntil(now_ + duration); }

  // Runs every event strictly before `end_exclusive`, then advances the clock
  // to `end_exclusive`. One shard's share of a synchronization window
  // [T, T+delta): events the window's work schedules inside the window run
  // too; events at or past the edge wait for the next window.
  void RunWindow(SimTime end_exclusive);

  // Runs while `predicate` returns true and events remain. Active Explorer
  // Modules drive the simulation with this until their own completion flag
  // flips.
  void RunWhile(const std::function<bool()>& predicate);

  // Drains every pending event (only safe without self-rescheduling daemons).
  void RunUntilIdle();

  // Total events executed; used by scheduler tests.
  uint64_t executed_count() const { return executed_; }

 private:
  // The heap orders small trivially copyable entries; each names the slot
  // in actions_ holding its action, so a sift never moves a std::function.
  struct Entry {
    SimTime when;
    uint64_t seq;   // FIFO tie-break for simultaneous events.
    uint32_t slot;  // Index into actions_.
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Publishes locally-tallied dispatch counts and the queue-depth high-water
  // to the global instruments. Called at the end of every run loop — NOT per
  // event: the global counter is shared by every shard queue, and a per-event
  // fetch_add from four worker threads turns one cache line into a
  // serialization point. Step() called directly (scheduler tests) tallies
  // locally; the instruments catch up at the next run-loop exit.
  void FlushTelemetry();

  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_;
  // Actions of pending events, by slot; a run event's slot is recycled
  // through free_slots_.
  std::vector<Action> actions_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = SimTime::Epoch();
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t dispatched_flushed_ = 0;  // Portion of executed_ already in the counter.
  int64_t depth_high_water_ = 0;     // This queue's own high-water mark.
  // Cached instruments: registry pointers are stable for the process
  // lifetime (Reset() zeroes in place), so the run-loop flush avoids a
  // map lookup.
  telemetry::Counter* events_dispatched_ = nullptr;
  telemetry::Gauge* queue_depth_high_water_ = nullptr;
};

}  // namespace fremont

#endif  // SRC_SIM_EVENT_QUEUE_H_
