// ShardedEventQueue: the parallel execution core.
//
// The simulated topology is partitioned into shards (one EventQueue + one
// seeded Rng stream each) that execute genuinely in parallel on a worker
// pool under conservative time-window synchronization:
//
//   * The control thread picks the next window [T, T+delta) where T is the
//     earliest pending event across all shards, and dispatches every shard
//     with work in that window to the pool. Within the window each shard runs
//     its own events independently — no locks on the hot event path.
//   * Cross-shard deliveries (routed packets, inter-segment probes) are not
//     executed remotely: the sender enqueues a PostedEvent onto the target
//     shard's mailbox. Mailboxes drain at the next window barrier, where each
//     entry is scheduled onto the target's own queue — so a cross-shard event
//     is never observed before the barrier, and never runs earlier than its
//     timestamp (it may slip later by at most one window, the price of the
//     relaxed-conservative protocol; see DESIGN.md §14).
//
// Determinism: shard s draws from its own Rng stream (seeded from the global
// seed and s), windows depend only on event timestamps, and mailbox drains
// sort by (when, source shard, source sequence). A fixed (seed, shard_count)
// with workers = 1 therefore replays the whole system byte-identically; with
// more workers the runtime's schedule is unchanged but shards race to shared
// sinks (the Journal's ingest lock), so cross-shard arrival order — not the
// discovered results — may vary. DESIGN.md §14 states the exact contract.

#ifndef SRC_SIM_RUNTIME_SHARDED_EVENT_QUEUE_H_
#define SRC_SIM_RUNTIME_SHARDED_EVENT_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/telemetry/span.h"

#include "src/sim/event_queue.h"
#include "src/sim/runtime/worker_pool.h"
#include "src/telemetry/metrics.h"
#include "src/util/rng.h"
#include "src/util/sim_time.h"
#include "src/util/thread_annotations.h"

namespace fremont {

class ShardedEventQueue {
 public:
  struct Options {
    int shards = 1;
    // Worker threads driving shard windows. 1 executes windows inline on the
    // control thread (no pool); results are identical either way — the
    // thread count is a wall-clock knob, not a semantic one.
    int workers = 1;
    // Window width delta. Cross-shard deliveries may slip forward by up to
    // this much; larger windows amortize barrier cost, smaller ones tighten
    // cross-shard latency fidelity.
    Duration window = Duration::Millis(20);
    uint64_t seed = 1993;
  };

  explicit ShardedEventQueue(Options options);
  ~ShardedEventQueue() = default;
  ShardedEventQueue(const ShardedEventQueue&) = delete;
  ShardedEventQueue& operator=(const ShardedEventQueue&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  EventQueue& queue(int shard) { return shards_[static_cast<size_t>(shard)]->queue; }
  Rng& rng(int shard) { return shards_[static_cast<size_t>(shard)]->rng; }

  // The control-thread view of the clock. Window barriers advance every
  // shard to the same instant, so between drive calls all shard clocks agree.
  SimTime Now() const { return shards_.front()->queue.Now(); }

  // Enqueues `action` onto `shard`'s mailbox, runnable from the next window
  // barrier at no earlier than `when` (clamped forward to the shard's clock
  // at drain time). Safe from any worker mid-window and from the control
  // thread between windows.
  void Post(int shard, SimTime when, EventQueue::Action action);

  // Drive calls (control thread only; all mirror EventQueue's semantics).
  void RunUntil(SimTime deadline);
  void RunFor(Duration duration) { RunUntil(Now() + duration); }
  // Runs windows while `predicate` stays true, checking it at each barrier
  // (not between events, so the runtime may overshoot a flipped predicate by
  // at most one window of background activity). Stops regardless once no
  // shard has events and every mailbox is empty.
  void RunWhile(const std::function<bool()>& predicate);
  void RunUntilIdle();

  // The shard context of the calling thread: set while a shard window (or
  // inclusive barrier pass) executes, so code deep in the stack — Segment
  // cross-shard checks, Simulator::Now() — can tell which shard it is on.
  // Returns -1 / nullptr on the control thread between windows.
  static int CurrentShard();
  static EventQueue* CurrentQueue();

  // --- Statistics (read between drive calls) -------------------------------
  uint64_t window_barriers() const { return window_barriers_; }
  uint64_t cross_shard_posted() const {
    return cross_shard_posted_.load(std::memory_order_relaxed);
  }
  uint64_t worker_idle_us() const { return pool_ ? pool_->idle_wait_us() : 0; }
  std::vector<uint64_t> PerShardExecuted() const;

 private:
  struct PostedEvent {
    SimTime when;
    int source_shard;      // -1 for the control thread.
    uint64_t source_seq;   // Per-source FIFO tie-break, for deterministic drains.
    EventQueue::Action action;
  };
  struct Mailbox {
    Mutex mu;
    std::vector<PostedEvent> items FREMONT_GUARDED_BY(mu);
  };
  // unique_ptr: shards must not move when the vector is built, and padding
  // them out to their own allocations also keeps the hot per-shard state
  // (queue, rng) off one shared cache line.
  struct Shard {
    EventQueue queue;
    Rng rng;
    Mailbox mailbox;
    uint64_t post_seq = 0;  // Touched only by this shard's executor.

    explicit Shard(uint64_t seed) : rng(seed) {}
  };

  // Schedules every mailbox entry onto its target queue (control thread,
  // workers quiescent). Returns the number of entries moved.
  size_t DrainMailboxes();
  // Earliest pending event across shards; nullopt when all queues are empty.
  std::optional<SimTime> NextEventTime() const;
  // Runs one window ending (exclusive) at `end`, then aligns every shard's
  // clock to `end`. `inclusive_deadline` engages the degenerate final pass of
  // RunUntil: events exactly at the deadline run via EventQueue::RunUntil.
  void ExecuteWindow(SimTime end, bool inclusive_deadline);
  // Per-drive-call shard run spans (only when tracing is enabled): one span
  // per shard, re-activated around each of its windows so shard-side trace
  // events nest under it.
  void BeginDrive();
  void EndDrive();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<WorkerPool> pool_;  // Null when workers == 1 (inline mode).
  Duration window_;
  uint64_t control_post_seq_ = 0;
  uint64_t window_barriers_ = 0;
  std::atomic<uint64_t> cross_shard_posted_{0};
  // Scratch reused across windows: indices of shards active in this window.
  std::vector<int> active_scratch_;
  // Engaged between BeginDrive()/EndDrive() while tracing.
  std::vector<std::unique_ptr<telemetry::Span>> drive_spans_;
  int drive_depth_ = 0;
  telemetry::Counter* barriers_counter_ = nullptr;
  telemetry::Counter* cross_shard_counter_ = nullptr;
  telemetry::Gauge* idle_gauge_ = nullptr;
};

}  // namespace fremont

#endif  // SRC_SIM_RUNTIME_SHARDED_EVENT_QUEUE_H_
