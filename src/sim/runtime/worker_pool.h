// A persistent worker-thread pool for the sharded event runtime.
//
// The pool is the ONLY place in the tree allowed to create OS threads
// (fremont_lint enforces this): every parallel shard window runs on one of
// these workers, so thread lifetime, shutdown, and idle accounting live in
// exactly one component. Jobs are claimed dynamically (an atomic cursor) so
// an early-finishing worker picks up the next shard instead of idling behind
// a static assignment.
//
// Handoff latency matters here: the runtime dispatches one epoch per
// synchronization window, and windows can be only tens of microseconds of
// work per shard. Workers therefore spin briefly on the epoch counter before
// parking on the condition variable, and the dispatcher spins briefly on the
// completion counter before blocking — the condvar path is the fallback for
// genuinely idle periods, not the per-window fast path.

#ifndef SRC_SIM_RUNTIME_WORKER_POOL_H_
#define SRC_SIM_RUNTIME_WORKER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/thread_annotations.h"

namespace fremont {

class WorkerPool {
 public:
  using Job = std::function<void(int)>;

  // Spawns `threads` workers (0 is allowed: Run() then executes inline on the
  // calling thread, which keeps a 1-worker runtime free of handoff latency).
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs job(0) .. job(jobs-1) across the pool and blocks until every call
  // has returned. The caller does not execute jobs itself (except in the
  // zero-thread inline mode), so `jobs` callbacks only ever run on pool
  // threads — the property the runtime's thread-local shard context relies
  // on. Not reentrant; one dispatch at a time.
  void Run(int jobs, const Job& job) FREMONT_EXCLUDES(mu_);

  // Cumulative wall-clock time workers spent parked waiting for a dispatch,
  // across all workers (spin time is not counted — it is bounded and short).
  // Exported as runtime/worker_idle_us.
  uint64_t idle_wait_us() const { return idle_wait_us_.load(std::memory_order_relaxed); }

 private:
  void WorkerMain() FREMONT_EXCLUDES(mu_);

  // Written in the constructor, joined in the destructor; workers never
  // touch the vector itself.
  std::vector<std::thread> threads_;  // lint: unguarded(ctor/dtor only)
  // Spin iterations before parking/blocking. Zero when the machine does not
  // have a spare hardware thread for every worker plus the dispatcher:
  // spinning on an oversubscribed core only delays the thread that holds the
  // work, so the pool goes straight to the condvar there.
  const int spin_limit_;
  Mutex mu_;             // Guards the park/notify fallback only.
  CondVar work_cv_;      // Fallback wakeup for parked workers.
  CondVar done_cv_;      // Fallback wakeup for a blocked Run().
  // Valid while an epoch is in flight. Not mutex-guarded: Run()'s release
  // store to epoch_ publishes job_/job_count_, and workers acquire-load the
  // epoch before reading them.
  const Job* job_ = nullptr;  // lint: unguarded(published by the epoch_ protocol)
  int job_count_ = 0;         // lint: unguarded(published by the epoch_ protocol)
  std::atomic<int> next_job_{0};       // Claim cursor for the current epoch.
  std::atomic<int> workers_done_{0};   // Workers finished with the current epoch.
  std::atomic<uint64_t> epoch_{0};     // Bumped per dispatch; release-publishes job_.
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> idle_wait_us_{0};
};

}  // namespace fremont

#endif  // SRC_SIM_RUNTIME_WORKER_POOL_H_
