#include "src/sim/simulator.h"

#include <algorithm>

namespace fremont {

Simulator::Simulator(uint64_t seed, ShardOptions shard_options) : rng_(seed) {
  if (shard_options.shards > 1) {
    ShardedEventQueue::Options options;
    options.shards = shard_options.shards;
    options.workers = shard_options.workers;
    options.window = shard_options.window;
    options.seed = seed;
    runtime_ = std::make_unique<ShardedEventQueue>(options);
  }
}

SimTime Simulator::Now() const {
  if (const EventQueue* current = ShardedEventQueue::CurrentQueue(); current != nullptr) {
    return current->Now();
  }
  return runtime_ ? runtime_->Now() : events_.Now();
}

void Simulator::set_creation_shard(int shard) {
  if (runtime_ == nullptr) {
    creation_shard_ = 0;
    return;
  }
  creation_shard_ = std::clamp(shard, 0, runtime_->shard_count() - 1);
}

void Simulator::RunFor(Duration duration) {
  if (runtime_) {
    runtime_->RunFor(duration);
  } else {
    events_.RunFor(duration);
  }
}

void Simulator::RunUntil(SimTime deadline) {
  if (runtime_) {
    runtime_->RunUntil(deadline);
  } else {
    events_.RunUntil(deadline);
  }
}

Segment* Simulator::CreateSegment(const std::string& name, Subnet subnet, SegmentParams params) {
  EventQueue* events = runtime_ ? &runtime_->queue(creation_shard_) : &events_;
  Rng* rng = runtime_ ? &runtime_->rng(creation_shard_) : &rng_;
  segments_.push_back(std::make_unique<Segment>(name, subnet, params, events, rng));
  segments_.back()->SetShard(runtime_.get(), creation_shard_);
  return segments_.back().get();
}

Host* Simulator::CreateHost(const std::string& name, HostConfig config) {
  EventQueue* events = runtime_ ? &runtime_->queue(creation_shard_) : &events_;
  Rng* rng = runtime_ ? &runtime_->rng(creation_shard_) : &rng_;
  hosts_.push_back(std::make_unique<Host>(name, config, events, rng));
  hosts_.back()->set_shard(creation_shard_);
  return hosts_.back().get();
}

Router* Simulator::CreateRouter(const std::string& name, RouterConfig config) {
  EventQueue* events = runtime_ ? &runtime_->queue(creation_shard_) : &events_;
  Rng* rng = runtime_ ? &runtime_->rng(creation_shard_) : &rng_;
  auto router = std::make_unique<Router>(name, config, events, rng);
  Router* raw = router.get();
  raw->set_shard(creation_shard_);
  hosts_.push_back(std::move(router));
  routers_.push_back(raw);
  return raw;
}

Host* Simulator::FindHost(const std::string& name) const {
  for (const auto& host : hosts_) {
    if (host->name() == name) {
      return host.get();
    }
  }
  return nullptr;
}

Segment* Simulator::FindSegment(const std::string& name) const {
  for (const auto& segment : segments_) {
    if (segment->name() == name) {
      return segment.get();
    }
  }
  return nullptr;
}

}  // namespace fremont
