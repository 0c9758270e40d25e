// Simulator: the container that owns a simulated internet.
//
// Owns the execution core (virtual clock), RNG, segments, hosts, and routers.
// Topology builders populate it; Explorer Modules run against hosts inside
// it; benches read its statistics.
//
// By default (shards = 1) the core is the single EventQueue it has always
// been — one thread, one clock, byte-identical behaviour. With ShardOptions
// naming more shards, the core is a ShardedEventQueue: topology builders
// place segments/hosts onto shards via set_creation_shard(), and drive calls
// execute shard windows on a worker pool (see src/sim/runtime/).

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/host.h"
#include "src/sim/router.h"
#include "src/sim/runtime/sharded_event_queue.h"
#include "src/sim/segment.h"
#include "src/util/rng.h"

namespace fremont {

struct ShardOptions {
  int shards = 1;   // 1 = the classic single-queue core (the default).
  int workers = 1;  // Worker threads for shard windows; 1 runs them inline.
  Duration window = Duration::Millis(20);  // Synchronization window delta.
};

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1993, ShardOptions shard_options = {});
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Shard 0's queue/rng in sharded mode; THE queue/rng otherwise.
  EventQueue& events() { return runtime_ ? runtime_->queue(0) : events_; }
  Rng& rng() { return runtime_ ? runtime_->rng(0) : rng_; }

  // On a worker mid-window this is the executing shard's clock (so Journal
  // stamps and log lines carry the writer's time); elsewhere the global one.
  SimTime Now() const;

  // Null unless constructed with shards > 1.
  ShardedEventQueue* runtime() { return runtime_.get(); }
  int shard_count() const { return runtime_ ? runtime_->shard_count() : 1; }

  // Shard placement for topology builders: everything created after this
  // call lands on `shard` (its queue, its RNG stream). Ignored (always shard
  // 0) in single-queue mode. Builders restore it to 0 when done.
  void set_creation_shard(int shard);
  int creation_shard() const { return creation_shard_; }
  EventQueue& shard_events(int shard) { return runtime_ ? runtime_->queue(shard) : events_; }
  Rng& shard_rng(int shard) { return runtime_ ? runtime_->rng(shard) : rng_; }

  Segment* CreateSegment(const std::string& name, Subnet subnet, SegmentParams params = {});
  Host* CreateHost(const std::string& name, HostConfig config = {});
  Router* CreateRouter(const std::string& name, RouterConfig config = {});

  Host* FindHost(const std::string& name) const;
  Segment* FindSegment(const std::string& name) const;

  const std::vector<std::unique_ptr<Segment>>& segments() const { return segments_; }
  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  const std::vector<Router*>& routers() const { return routers_; }

  // Convenience clock controls (windowed and parallel in sharded mode).
  void RunFor(Duration duration);
  void RunUntil(SimTime deadline);

 private:
  EventQueue events_;  // Unused (but harmless) when runtime_ is engaged.
  Rng rng_;
  std::unique_ptr<ShardedEventQueue> runtime_;  // Engaged when shards > 1.
  int creation_shard_ = 0;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<std::unique_ptr<Host>> hosts_;  // Includes routers (as Host).
  std::vector<Router*> routers_;              // Typed view of the routers.
};

}  // namespace fremont

#endif  // SRC_SIM_SIMULATOR_H_
