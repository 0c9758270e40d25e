#include "src/sim/event_queue.h"

#include <utility>

#include "src/telemetry/names.h"

namespace fremont {

EventQueue::EventQueue() {
  auto& metrics = telemetry::MetricsRegistry::Global();
  events_dispatched_ = metrics.GetCounter(telemetry::names::kSimEventsDispatched);
  queue_depth_high_water_ = metrics.GetGauge(telemetry::names::kSimQueueDepthHighWater);
}

void EventQueue::ScheduleAt(SimTime when, Action action) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  queue_.push(Entry{when, next_seq_++, slot});
  const int64_t depth = static_cast<int64_t>(queue_.size());
  if (depth > depth_high_water_) {
    depth_high_water_ = depth;
  }
}

void EventQueue::FlushTelemetry() {
  if (executed_ != dispatched_flushed_) {
    events_dispatched_->Add(executed_ - dispatched_flushed_);
    dispatched_flushed_ = executed_;
  }
  if (depth_high_water_ > queue_depth_high_water_->value()) {
    queue_depth_high_water_->Set(depth_high_water_);
  }
}

bool EventQueue::Step() {
  if (queue_.empty()) {
    return false;
  }
  const Entry entry = queue_.top();
  queue_.pop();
  // Move the action out before running it: it may schedule events, which can
  // reuse its slot or grow actions_.
  Action action = std::move(actions_[entry.slot]);
  free_slots_.push_back(entry.slot);
  now_ = entry.when;
  ++executed_;
  action();
  return true;
}

void EventQueue::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  FlushTelemetry();
}

void EventQueue::RunWindow(SimTime end_exclusive) {
  while (!queue_.empty() && queue_.top().when < end_exclusive) {
    Step();
  }
  if (now_ < end_exclusive) {
    now_ = end_exclusive;
  }
  FlushTelemetry();
}

void EventQueue::RunWhile(const std::function<bool()>& predicate) {
  while (predicate() && Step()) {
  }
  FlushTelemetry();
}

void EventQueue::RunUntilIdle() {
  while (Step()) {
  }
  FlushTelemetry();
}

}  // namespace fremont
