// fremont_serve: the serving layer for heavy read traffic.
//
// fremont_report runs the full analysis per invocation; this inverts the
// model. A long-lived ServeService tails the Journal change feed
// (kGetChangedSince), keeps CorrelationState plus the materialized views in
// src/serve/views.h incrementally warm, and *pushes* view invalidations to
// subscribed clients over the kSubscribe/kUnsubscribe/kPushUpdate wire ops —
// one analysis pass per generation bump fans out to every subscriber instead
// of every client re-running the analysis.
//
// Concurrency model (DESIGN.md §15):
//  - Views are double-buffered: each Refresh() builds a new ViewSnapshot
//    off-line from the service's ChangeFeedMirror, then publishes it by
//    swapping an atomic shared_ptr. Readers (snapshot()/ReadView()) load the
//    pointer and never take the analysis or subscription lock — p99 read
//    latency is the cost of an atomic load plus a string read.
//  - Refresh() is the single writer (guarded by refresh_mu_ for safety); it
//    syncs the mirror (change_feed_mirror.h: patched from the change feed,
//    byte-identical to a full fetch), rebuilds views only when the mirror's
//    generation moved, and pushes to every subscriber whose cursor lags.
//    The correlation pass, when on, works from the same mirror and syncs its
//    interface and subnet tables itself, so one copy of the Journal and one
//    set of delta reads serve both.
//  - Subscription state has its own mutex. HandleSubscribe/HandleUnsubscribe
//    arrive under the Journal server's *shared* ingest lock; push callbacks
//    are invoked with NO service lock held (the subscriber list is copied
//    out first), so a push handler may freely call back into the server.
//
// Push framing: a kPushUpdate JournalRequest frame (subscriber id, mask of
// views whose content changed past the subscriber's cursor, and the
// generation the views are now current to). The in-process PushFn channel
// stands in for a socket write; returning false means the peer is gone and
// the subscription is dropped.

#ifndef SRC_SERVE_SERVE_H_
#define SRC_SERVE_SERVE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/journal/change_feed_mirror.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/manager/correlate.h"
#include "src/serve/views.h"
#include "src/util/thread_annotations.h"

namespace fremont::serve {

struct ServeOptions {
  // Run an incremental correlation pass at the top of each Refresh(), so
  // inferred gateways land in the Journal (and the views) before the views
  // are rebuilt. Off for view-only serving of a Journal someone else
  // correlates.
  bool run_correlation = true;
  int assumed_prefix = 24;  // Forwarded to CorrelationState.
};

class ServeService : public SubscriptionBroker {
 public:
  using Clock = std::function<SimTime()>;
  // A push channel: the serving layer's handle to one subscriber's
  // connection. Receives encoded kPushUpdate frames; returns false when the
  // peer is gone (socket closed), which drops the subscription.
  using PushFn = std::function<bool(const ByteBuffer&)>;

  // Attaches to `server` as its SubscriptionBroker. The server must outlive
  // this service (the destructor detaches).
  ServeService(JournalServer* server, Clock clock, ServeOptions options = {});
  ~ServeService() override;
  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  // Registers a push channel and returns its id. A kSubscribe request then
  // binds a subscription to the channel by carrying this id in
  // subscriber_id. (Over a real socket the channel would be implicit in the
  // connection; in-process it is explicit.)
  uint32_t RegisterChannel(PushFn push) FREMONT_EXCLUDES(sub_mu_);
  void UnregisterChannel(uint32_t channel_id) FREMONT_EXCLUDES(sub_mu_);

  // SubscriptionBroker — called by JournalServer::DispatchRead under its
  // shared ingest lock. Never invokes push callbacks (a fresh subscriber is
  // caught up by the next Refresh()).
  JournalResponse HandleSubscribe(const JournalRequest& request) override
      FREMONT_EXCLUDES(sub_mu_);
  JournalResponse HandleUnsubscribe(const JournalRequest& request) override
      FREMONT_EXCLUDES(sub_mu_);

  struct RefreshResult {
    uint64_t generation = 0;   // What the views are current to afterwards.
    bool views_rebuilt = false;
    int pushes = 0;            // kPushUpdate frames delivered.
    int dropped = 0;           // Subscribers whose channel reported EOF.
  };
  // One serving pass: correlate, tail the change feed, rebuild + publish the
  // snapshot if the generation moved, push to lagging subscribers. The
  // single-writer entry point; serialize external callers or let one serving
  // thread own it. Acquires refresh_mu_ for the whole pass and sub_mu_ in
  // short inner scopes (refresh before sub — the declared order).
  RefreshResult Refresh() FREMONT_EXCLUDES(refresh_mu_, sub_mu_);

  // The published snapshot (lock-free atomic load; null before the first
  // Refresh). Hold the shared_ptr for as long as the views are read.
  std::shared_ptr<const ViewSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }
  // snapshot() plus a wall-clock latency observation into
  // serve/query_latency_us/<view> — the serving read path dashboards hit.
  std::shared_ptr<const ViewSnapshot> ReadView(ViewKind kind);

  size_t subscriber_count() const FREMONT_EXCLUDES(sub_mu_);

 private:
  struct Subscription {
    uint32_t id = 0;  // == channel id (one subscription per channel).
    uint16_t mask = 0;
    uint64_t cursor = 0;  // Generation the subscriber has acknowledged.
    PushFn push;
  };

  void PublishSnapshot(uint64_t generation) FREMONT_REQUIRES(refresh_mu_);

  JournalServer* const server_;
  const Clock clock_;
  const ServeOptions options_;

  // Single-writer refresh state (guarded by refresh_mu_): the Journal client,
  // the mirror the views render from, and the correlation pass over it.
  Mutex refresh_mu_;
  const std::unique_ptr<JournalClient> client_ FREMONT_PT_GUARDED_BY(refresh_mu_);
  ChangeFeedMirror mirror_ FREMONT_GUARDED_BY(refresh_mu_);
  CorrelationState correlation_ FREMONT_GUARDED_BY(refresh_mu_);

  // The published views. Written by PublishSnapshot, read lock-free.
  std::atomic<std::shared_ptr<const ViewSnapshot>> snapshot_;

  // Subscription registry. sub_mu_ is a leaf lock: held only for registry
  // reads/writes, never across a push callback or a Journal round trip, and
  // always nested inside refresh_mu_ when both are held (declared in
  // tools/fremont_lint/lock_order.txt and below for Clang).
  mutable Mutex sub_mu_ FREMONT_ACQUIRED_AFTER(refresh_mu_);
  std::map<uint32_t, Subscription> subscriptions_ FREMONT_GUARDED_BY(sub_mu_);
  std::map<uint32_t, PushFn> channels_ FREMONT_GUARDED_BY(sub_mu_);
  uint32_t next_channel_id_ FREMONT_GUARDED_BY(sub_mu_) = 1;
};

// Client-side subscriber: registers a push channel with the service, issues
// the kSubscribe round trip through a JournalClient (exercising the full
// wire path), and decodes incoming kPushUpdate frames, tracking its cursor.
// The test double for a dashboard connection; set_connected(false) simulates
// the peer vanishing mid-push.
class ServeSubscriber {
 public:
  ServeSubscriber(ServeService* service, JournalClient* client);
  ~ServeSubscriber();
  ServeSubscriber(const ServeSubscriber&) = delete;
  ServeSubscriber& operator=(const ServeSubscriber&) = delete;

  // Subscribes for `mask` views from `since_generation` (0 = from the
  // beginning: the next Refresh delivers a catch-up push).
  bool Subscribe(uint16_t mask, uint64_t since_generation = 0);
  // Re-subscribes resuming from the last pushed cursor.
  bool Resubscribe(uint16_t mask);
  bool Unsubscribe();

  void set_connected(bool connected) { connected_.store(connected, std::memory_order_release); }

  uint32_t subscriber_id() const { return subscriber_id_; }
  uint64_t cursor() const { return cursor_.load(std::memory_order_acquire); }
  uint16_t last_push_mask() const { return last_push_mask_.load(std::memory_order_acquire); }
  int pushes_received() const { return pushes_received_.load(std::memory_order_acquire); }

 private:
  bool OnPush(const ByteBuffer& frame);

  ServeService* service_;
  JournalClient* client_;
  uint32_t channel_id_ = 0;
  uint32_t subscriber_id_ = 0;
  bool subscribed_ = false;
  std::atomic<bool> connected_{true};
  std::atomic<uint64_t> cursor_{0};
  std::atomic<uint16_t> last_push_mask_{0};
  std::atomic<int> pushes_received_{0};
};

}  // namespace fremont::serve

#endif  // SRC_SERVE_SERVE_H_
