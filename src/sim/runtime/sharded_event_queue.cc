#include "src/sim/runtime/sharded_event_queue.h"

#include <algorithm>
#include <utility>

#include "src/telemetry/names.h"
#include "src/telemetry/trace.h"
#include "src/util/string_util.h"

namespace fremont {
namespace {

// The executing shard, visible to everything the shard's events call into.
thread_local int t_current_shard = -1;
thread_local EventQueue* t_current_queue = nullptr;

// splitmix64 finalizer: spreads (seed, shard) into well-separated streams so
// adjacent shard ids do not yield correlated mt19937_64 seedings.
uint64_t ShardSeed(uint64_t seed, int shard) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ShardedEventQueue::ShardedEventQueue(Options options)
    : window_(options.window > Duration::Zero() ? options.window : Duration::Micros(1)) {
  const int shards = std::max(1, options.shards);
  shards_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(ShardSeed(options.seed, s)));
  }
  if (options.workers > 1) {
    pool_ = std::make_unique<WorkerPool>(options.workers);
  }
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.GetGauge(telemetry::names::kRuntimeShards)->Set(shards);
  barriers_counter_ = metrics.GetCounter(telemetry::names::kRuntimeWindowBarriers);
  cross_shard_counter_ = metrics.GetCounter(telemetry::names::kRuntimeCrossShardEvents);
  idle_gauge_ = metrics.GetGauge(telemetry::names::kRuntimeWorkerIdleUs);
}

int ShardedEventQueue::CurrentShard() { return t_current_shard; }

EventQueue* ShardedEventQueue::CurrentQueue() { return t_current_queue; }

void ShardedEventQueue::Post(int shard, SimTime when, EventQueue::Action action) {
  Shard& target = *shards_[static_cast<size_t>(shard)];
  const int source = t_current_shard;
  const uint64_t seq = source >= 0
                           ? shards_[static_cast<size_t>(source)]->post_seq++
                           : control_post_seq_++;
  {
    const MutexLock lock(target.mailbox.mu);
    target.mailbox.items.push_back(PostedEvent{when, source, seq, std::move(action)});
  }
  cross_shard_posted_.fetch_add(1, std::memory_order_relaxed);
  cross_shard_counter_->Increment();
}

size_t ShardedEventQueue::DrainMailboxes() {
  size_t moved = 0;
  for (auto& shard : shards_) {
    std::vector<PostedEvent> items;
    {
      const MutexLock lock(shard->mailbox.mu);
      items.swap(shard->mailbox.items);
    }
    if (items.empty()) {
      continue;
    }
    // Deterministic drain order: mailbox arrival order depends on thread
    // timing, but (when, source, per-source seq) does not.
    std::sort(items.begin(), items.end(), [](const PostedEvent& a, const PostedEvent& b) {
      if (a.when != b.when) {
        return a.when < b.when;
      }
      if (a.source_shard != b.source_shard) {
        return a.source_shard < b.source_shard;
      }
      return a.source_seq < b.source_seq;
    });
    for (auto& item : items) {
      // ScheduleAt clamps a stale `when` forward to the shard's clock: a
      // cross-shard event never runs before its timestamp, only up to one
      // window late.
      shard->queue.ScheduleAt(item.when, std::move(item.action));
    }
    moved += items.size();
  }
  return moved;
}

std::optional<SimTime> ShardedEventQueue::NextEventTime() const {
  std::optional<SimTime> earliest;
  for (const auto& shard : shards_) {
    const auto next = shard->queue.NextEventTime();
    if (next.has_value() && (!earliest.has_value() || *next < *earliest)) {
      earliest = next;
    }
  }
  return earliest;
}

void ShardedEventQueue::ExecuteWindow(SimTime end, bool inclusive_deadline) {
  active_scratch_.clear();
  for (int s = 0; s < shard_count(); ++s) {
    const auto next = shards_[static_cast<size_t>(s)]->queue.NextEventTime();
    if (next.has_value() && (inclusive_deadline ? *next <= end : *next < end)) {
      active_scratch_.push_back(s);
    }
  }
  ++window_barriers_;
  barriers_counter_->Increment();
  auto run_shard = [this, end, inclusive_deadline](int idx) {
    const int s = active_scratch_[static_cast<size_t>(idx)];
    Shard& shard = *shards_[static_cast<size_t>(s)];
    t_current_shard = s;
    t_current_queue = &shard.queue;
    std::optional<telemetry::CurrentSpanScope> scope;
    if (static_cast<size_t>(s) < drive_spans_.size() && drive_spans_[s] != nullptr) {
      scope.emplace(telemetry::Tracer::Global(), drive_spans_[s]->context());
    }
    if (inclusive_deadline) {
      shard.queue.RunUntil(end);
    } else {
      shard.queue.RunWindow(end);
    }
    scope.reset();
    t_current_shard = -1;
    t_current_queue = nullptr;
  };
  // Single-shard windows (and the single-worker runtime) run inline on the
  // control thread: no handoff, no wakeup — the common case when only one
  // part of the topology is active.
  if (active_scratch_.size() <= 1 || pool_ == nullptr) {
    for (size_t i = 0; i < active_scratch_.size(); ++i) {
      run_shard(static_cast<int>(i));
    }
  } else {
    pool_->Run(static_cast<int>(active_scratch_.size()), run_shard);
  }
  for (auto& shard : shards_) {
    shard->queue.AdvanceTo(end);
  }
}

void ShardedEventQueue::BeginDrive() {
  if (drive_depth_++ > 0) {
    return;
  }
  auto& tracer = telemetry::Tracer::Global();
  if (!tracer.enabled() || shard_count() < 2) {
    return;
  }
  drive_spans_.clear();
  for (int s = 0; s < shard_count(); ++s) {
    // make_current = false: the span is activated per window on whichever
    // worker executes the shard, not on the control thread creating it here.
    drive_spans_.push_back(std::make_unique<telemetry::Span>(
        telemetry::names::kSpanShardRun, Now(), tracer, telemetry::SpanContext{},
        /*make_current=*/false));
  }
}

void ShardedEventQueue::EndDrive() {
  if (--drive_depth_ > 0) {
    return;
  }
  for (int s = 0; s < static_cast<int>(drive_spans_.size()); ++s) {
    drive_spans_[static_cast<size_t>(s)]->End(
        telemetry::TraceEventKind::kShardRun, Now(),
        StringPrintf("shard=%d executed=%llu", s,
                     static_cast<unsigned long long>(
                         shards_[static_cast<size_t>(s)]->queue.executed_count())));
  }
  drive_spans_.clear();
  idle_gauge_->Set(static_cast<int64_t>(worker_idle_us()));
}

void ShardedEventQueue::RunUntil(SimTime deadline) {
  BeginDrive();
  while (true) {
    DrainMailboxes();
    const auto next = NextEventTime();
    if (!next.has_value() || *next > deadline) {
      break;
    }
    const SimTime end = std::min(*next + window_, deadline);
    if (end <= *next) {
      // Only events exactly at the deadline remain: a degenerate zero-width
      // window, run inclusively so RunUntil's "events at the deadline run"
      // contract matches the single-queue scheduler.
      ExecuteWindow(deadline, /*inclusive_deadline=*/true);
    } else {
      ExecuteWindow(end, /*inclusive_deadline=*/false);
    }
  }
  for (auto& shard : shards_) {
    shard->queue.AdvanceTo(deadline);
  }
  EndDrive();
}

void ShardedEventQueue::RunWhile(const std::function<bool()>& predicate) {
  BeginDrive();
  while (true) {
    DrainMailboxes();
    if (!predicate()) {
      break;
    }
    const auto next = NextEventTime();
    if (!next.has_value()) {
      // Queues and mailboxes are both empty: nothing can ever flip the
      // predicate, so stop (the single-queue RunWhile ends the same way when
      // Step() runs dry).
      break;
    }
    ExecuteWindow(*next + window_, /*inclusive_deadline=*/false);
  }
  EndDrive();
}

void ShardedEventQueue::RunUntilIdle() {
  BeginDrive();
  while (true) {
    DrainMailboxes();
    const auto next = NextEventTime();
    if (!next.has_value()) {
      break;
    }
    ExecuteWindow(*next + window_, /*inclusive_deadline=*/false);
  }
  EndDrive();
}

std::vector<uint64_t> ShardedEventQueue::PerShardExecuted() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->queue.executed_count());
  }
  return counts;
}

}  // namespace fremont
