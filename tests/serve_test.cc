// The serving layer: wire codec coverage for the subscription ops, broker
// dispatch, the push flow end to end, and the disconnect/resume regressions.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/journal/client.h"
#include "src/journal/protocol.h"
#include "src/journal/server.h"
#include "src/serve/serve.h"
#include "src/serve/views.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/util/bytes.h"

namespace fremont {
namespace {

using serve::ServeService;
using serve::ServeSubscriber;
using serve::ViewBit;
using serve::ViewKind;

int64_t SubscriberGauge() {
  return telemetry::MetricsRegistry::Global()
      .GetGauge(telemetry::names::kServeSubscribers)
      ->value();
}

InterfaceObservation Obs(uint8_t host, const std::string& name = "") {
  InterfaceObservation obs;
  obs.ip = Ipv4Address(128, 138, 1, host);
  obs.mac = MacAddress::FromIndex(host);
  obs.dns_name = name;
  obs.mask = SubnetMask::FromPrefixLength(24);
  return obs;
}

// --- Wire codec ---

TEST(ServeProtocolTest, SubscribeRoundTrip) {
  JournalRequest req;
  req.type = RequestType::kSubscribe;
  req.subscriber_id = 42;
  req.view_mask = ViewBit(ViewKind::kProblems) | ViewBit(ViewKind::kCharacteristics);
  req.since_generation = 1993;

  const auto decoded = JournalRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RequestType::kSubscribe);
  EXPECT_EQ(decoded->subscriber_id, 42u);
  EXPECT_EQ(decoded->view_mask, req.view_mask);
  EXPECT_EQ(decoded->since_generation, 1993u);
}

TEST(ServeProtocolTest, UnsubscribeRoundTrip) {
  JournalRequest req;
  req.type = RequestType::kUnsubscribe;
  req.subscriber_id = 7;

  const auto decoded = JournalRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RequestType::kUnsubscribe);
  EXPECT_EQ(decoded->subscriber_id, 7u);
}

TEST(ServeProtocolTest, PushUpdateRoundTrip) {
  JournalRequest req;
  req.type = RequestType::kPushUpdate;
  req.subscriber_id = 3;
  req.view_mask = serve::kAllViewsMask;
  req.since_generation = 0xdeadbeefULL;

  const auto decoded = JournalRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RequestType::kPushUpdate);
  EXPECT_EQ(decoded->subscriber_id, 3u);
  EXPECT_EQ(decoded->view_mask, serve::kAllViewsMask);
  EXPECT_EQ(decoded->since_generation, 0xdeadbeefULL);
}

// --- Dispatch ---

TEST(ServeDispatchTest, SubscribeWithoutBrokerIsMalformed) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalRequest req;
  req.type = RequestType::kSubscribe;
  req.subscriber_id = 1;
  req.view_mask = serve::kAllViewsMask;
  EXPECT_EQ(server.Handle(req).status, ResponseStatus::kMalformedRequest);
  req.type = RequestType::kUnsubscribe;
  EXPECT_EQ(server.Handle(req).status, ResponseStatus::kMalformedRequest);
}

TEST(ServeDispatchTest, PushUpdateAsRequestIsMalformed) {
  // kPushUpdate is a server-to-client frame; arriving as a request it is
  // rejected even with a broker attached.
  JournalServer server([]() { return SimTime::Epoch(); });
  ServeService service(&server, []() { return SimTime::Epoch(); });
  JournalRequest req;
  req.type = RequestType::kPushUpdate;
  req.subscriber_id = 1;
  req.view_mask = 1;
  EXPECT_EQ(server.Handle(req).status, ResponseStatus::kMalformedRequest);
}

TEST(ServeDispatchTest, SubscribeValidation) {
  JournalServer server([]() { return SimTime::Epoch(); });
  ServeService service(&server, []() { return SimTime::Epoch(); });

  JournalRequest req;
  req.type = RequestType::kSubscribe;
  req.subscriber_id = 999;  // No such channel.
  req.view_mask = serve::kAllViewsMask;
  EXPECT_EQ(server.Handle(req).status, ResponseStatus::kNotFound);

  const uint32_t channel = service.RegisterChannel([](const ByteBuffer&) { return true; });
  req.subscriber_id = channel;
  req.view_mask = 0;  // Empty mask.
  EXPECT_EQ(server.Handle(req).status, ResponseStatus::kMalformedRequest);
  req.view_mask = 0x80;  // Unknown view bit.
  EXPECT_EQ(server.Handle(req).status, ResponseStatus::kMalformedRequest);

  req.view_mask = serve::kAllViewsMask;
  const JournalResponse ok = server.Handle(req);
  EXPECT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(ok.record_id, channel);
  EXPECT_EQ(service.subscriber_count(), 1u);

  JournalRequest unsub;
  unsub.type = RequestType::kUnsubscribe;
  unsub.subscriber_id = channel + 100;
  EXPECT_EQ(server.Handle(unsub).status, ResponseStatus::kNotFound);
  unsub.subscriber_id = channel;
  EXPECT_EQ(server.Handle(unsub).status, ResponseStatus::kOk);
  EXPECT_EQ(service.subscriber_count(), 0u);
}

// --- Push flow ---

class ServeFlowTest : public ::testing::Test {
 protected:
  ServeFlowTest()
      : server_([this]() { return now_; }),
        service_(&server_, [this]() { return now_; }),
        writer_(&server_),
        sub_client_(&server_) {}

  SimTime now_ = SimTime::Epoch() + Duration::Days(30);
  JournalServer server_;
  ServeService service_;
  JournalClient writer_;
  JournalClient sub_client_;
};

TEST_F(ServeFlowTest, PushDeliveredOnGenerationBumpAndIdleRefreshIsQuiet) {
  ServeSubscriber sub(&service_, &sub_client_);
  ASSERT_TRUE(sub.Subscribe(serve::kAllViewsMask));

  writer_.StoreInterface(Obs(1, "a.colorado.edu"), DiscoverySource::kArpWatch);
  writer_.StoreInterface(Obs(2, "b.colorado.edu"), DiscoverySource::kArpWatch);

  const auto first = service_.Refresh();
  EXPECT_TRUE(first.views_rebuilt);
  EXPECT_EQ(first.pushes, 1);
  EXPECT_EQ(sub.pushes_received(), 1);
  EXPECT_EQ(sub.cursor(), first.generation);
  EXPECT_NE(sub.last_push_mask() & ViewBit(ViewKind::kInterfacesBySubnet), 0);

  // Nothing changed: the snapshot stands, nobody is pushed.
  const auto idle = service_.Refresh();
  EXPECT_FALSE(idle.views_rebuilt);
  EXPECT_EQ(idle.pushes, 0);
  EXPECT_EQ(sub.pushes_received(), 1);

  // Another store bumps the generation; the subscriber hears about it.
  writer_.StoreInterface(Obs(3, "c.colorado.edu"), DiscoverySource::kArpWatch);
  const auto second = service_.Refresh();
  EXPECT_EQ(second.pushes, 1);
  EXPECT_EQ(sub.pushes_received(), 2);
  EXPECT_EQ(sub.cursor(), second.generation);

  // The published views match a cold render of the same records.
  const auto snap = service_.ReadView(ViewKind::kProblems);
  ASSERT_NE(snap, nullptr);
  const serve::ProblemsRender cold =
      serve::RenderProblems(writer_.GetInterfaces(), writer_.GetGateways(), now_);
  EXPECT_EQ(snap->view(ViewKind::kProblems), cold.text);
}

// Correlation and the views work from one mirror: the gateway a Refresh()
// infers reaches that same Refresh()'s views, which match a cold view-only
// rebuild of the Journal.
TEST_F(ServeFlowTest, InferredGatewayReachesTheViewsInTheSamePass) {
  InterfaceObservation arm = Obs(1, "gw.colorado.edu");
  writer_.StoreInterface(arm, DiscoverySource::kArpWatch);
  arm.ip = Ipv4Address(128, 138, 2, 1);  // Same MAC on a second subnet.
  writer_.StoreInterface(arm, DiscoverySource::kArpWatch);

  const auto refreshed = service_.Refresh();
  ASSERT_EQ(writer_.GetGateways().size(), 1u);
  EXPECT_EQ(refreshed.generation, writer_.last_seen_generation());
  const std::string warm = service_.snapshot()->Serialize();
  ServeService cold(&server_, [this]() { return now_; }, {.run_correlation = false});
  cold.Refresh();
  EXPECT_EQ(warm, cold.snapshot()->Serialize());
}

TEST_F(ServeFlowTest, MaskFiltersPushes) {
  // A problems-only subscriber is not pushed when only the interface browser
  // view changes (a new healthy host changes interfaces/characteristics but
  // introduces no problem finding)... so subscribe to a view that the store
  // does change, and one that it does not, and check the mask arithmetic.
  ServeSubscriber all_views(&service_, &sub_client_);
  ASSERT_TRUE(all_views.Subscribe(serve::kAllViewsMask));
  writer_.StoreInterface(Obs(1, "a.colorado.edu"), DiscoverySource::kArpWatch);
  ASSERT_EQ(service_.Refresh().pushes, 1);

  ServeSubscriber problems_only(&service_, &sub_client_);
  ASSERT_TRUE(problems_only.Subscribe(ViewBit(ViewKind::kProblems),
                                      service_.snapshot()->generation));

  // A healthy host: interfaces-by-subnet and characteristics move, the
  // problems view does not (no conflicts, nothing stale within the window).
  writer_.StoreInterface(Obs(2, "b.colorado.edu"), DiscoverySource::kArpWatch);
  const auto result = service_.Refresh();
  EXPECT_TRUE(result.views_rebuilt);
  EXPECT_EQ(result.pushes, 1);  // Only the all-views subscriber.
  EXPECT_EQ(all_views.pushes_received(), 2);
  EXPECT_EQ(problems_only.pushes_received(), 0);

  // Re-storing host 1 with no DNS record (a DNS-only problem needs the
  // reverse: DNS without ARP). Instead force a problem: duplicate IP.
  InterfaceObservation dup = Obs(3, "evil.colorado.edu");
  dup.ip = Ipv4Address(128, 138, 1, 1);  // Same IP as host 1, different MAC.
  writer_.StoreInterface(dup, DiscoverySource::kArpWatch);
  const auto conflict = service_.Refresh();
  EXPECT_GE(conflict.pushes, 2);  // Both subscribers hear about this one.
  EXPECT_EQ(problems_only.pushes_received(), 1);
  EXPECT_EQ(problems_only.last_push_mask(), ViewBit(ViewKind::kProblems));
  EXPECT_GT(service_.snapshot()->problem_findings, 0);
}

// Regression: a subscriber whose channel reports EOF mid-push is dropped
// cleanly — no dangling completion, subscriber gauge decremented — and the
// surviving subscriber still gets its push.
TEST_F(ServeFlowTest, DisconnectMidPushDropsSubscriberCleanly) {
  ServeSubscriber healthy(&service_, &sub_client_);
  ServeSubscriber doomed(&service_, &sub_client_);
  ASSERT_TRUE(healthy.Subscribe(serve::kAllViewsMask));
  ASSERT_TRUE(doomed.Subscribe(serve::kAllViewsMask));
  EXPECT_EQ(service_.subscriber_count(), 2u);
  EXPECT_EQ(SubscriberGauge(), 2);

  doomed.set_connected(false);  // The peer vanishes before the fan-out.
  writer_.StoreInterface(Obs(1, "a.colorado.edu"), DiscoverySource::kArpWatch);
  const auto result = service_.Refresh();
  EXPECT_EQ(result.pushes, 1);
  EXPECT_EQ(result.dropped, 1);
  EXPECT_EQ(healthy.pushes_received(), 1);
  EXPECT_EQ(doomed.pushes_received(), 0);
  EXPECT_EQ(service_.subscriber_count(), 1u);
  EXPECT_EQ(SubscriberGauge(), 1);

  // The dropped subscriber is gone for good: later refreshes never touch it.
  writer_.StoreInterface(Obs(2, "b.colorado.edu"), DiscoverySource::kArpWatch);
  const auto next = service_.Refresh();
  EXPECT_EQ(next.pushes, 1);
  EXPECT_EQ(next.dropped, 0);
  EXPECT_EQ(doomed.pushes_received(), 0);
}

// Regression: a dropped subscriber that re-subscribes resumes from its last
// acknowledged generation — it is pushed only if something changed past that
// cursor, and a catch-up push arrives on the next refresh without waiting
// for a new generation.
TEST_F(ServeFlowTest, LateResubscribeResumesFromCursor) {
  ServeSubscriber sub(&service_, &sub_client_);
  ASSERT_TRUE(sub.Subscribe(serve::kAllViewsMask));
  writer_.StoreInterface(Obs(1, "a.colorado.edu"), DiscoverySource::kArpWatch);
  ASSERT_EQ(service_.Refresh().pushes, 1);
  const uint64_t acked = sub.cursor();
  ASSERT_GT(acked, 0u);

  // Connection drops; the service evicts the subscription on the next push.
  sub.set_connected(false);
  writer_.StoreInterface(Obs(2, "b.colorado.edu"), DiscoverySource::kArpWatch);
  ASSERT_EQ(service_.Refresh().dropped, 1);
  EXPECT_EQ(service_.subscriber_count(), 0u);

  // Reconnect and resume from the cursor. The views changed at a generation
  // past `acked` while it was away, so the next refresh — with no new writes
  // at all — delivers the catch-up push.
  sub.set_connected(true);
  ASSERT_TRUE(sub.Resubscribe(serve::kAllViewsMask));
  EXPECT_EQ(service_.subscriber_count(), 1u);
  const auto catchup = service_.Refresh();
  EXPECT_FALSE(catchup.views_rebuilt);
  EXPECT_EQ(catchup.pushes, 1);
  EXPECT_EQ(sub.pushes_received(), 2);
  EXPECT_EQ(sub.cursor(), catchup.generation);
  EXPECT_GT(sub.cursor(), acked);

  // Now fully caught up: an idle refresh is quiet again.
  EXPECT_EQ(service_.Refresh().pushes, 0);
}

TEST_F(ServeFlowTest, UnsubscribeStopsPushes) {
  ServeSubscriber sub(&service_, &sub_client_);
  ASSERT_TRUE(sub.Subscribe(serve::kAllViewsMask));
  writer_.StoreInterface(Obs(1, "a.colorado.edu"), DiscoverySource::kArpWatch);
  ASSERT_EQ(service_.Refresh().pushes, 1);

  ASSERT_TRUE(sub.Unsubscribe());
  EXPECT_EQ(service_.subscriber_count(), 0u);
  writer_.StoreInterface(Obs(2, "b.colorado.edu"), DiscoverySource::kArpWatch);
  EXPECT_EQ(service_.Refresh().pushes, 0);
  EXPECT_EQ(sub.pushes_received(), 1);
}

TEST_F(ServeFlowTest, SnapshotReadsAreStableWhileServiceAdvances) {
  ServeSubscriber sub(&service_, &sub_client_);
  ASSERT_TRUE(sub.Subscribe(serve::kAllViewsMask));
  // The interface browser view renders per subnet *record*, so store one.
  SubnetObservation subnet;
  subnet.subnet = Subnet(Ipv4Address(128, 138, 1, 0), SubnetMask::FromPrefixLength(24));
  writer_.StoreSubnet(subnet, DiscoverySource::kSubnetMask);
  writer_.StoreInterface(Obs(1, "a.colorado.edu"), DiscoverySource::kArpWatch);
  service_.Refresh();

  // A reader holding the old snapshot keeps its view bytes even as the
  // service publishes newer generations underneath it.
  const auto held = service_.ReadView(ViewKind::kInterfacesBySubnet);
  ASSERT_NE(held, nullptr);
  const std::string before = held->view(ViewKind::kInterfacesBySubnet);
  const uint64_t held_generation = held->generation;

  writer_.StoreInterface(Obs(2, "b.colorado.edu"), DiscoverySource::kArpWatch);
  service_.Refresh();

  EXPECT_EQ(held->view(ViewKind::kInterfacesBySubnet), before);
  EXPECT_EQ(held->generation, held_generation);
  const auto fresh = service_.ReadView(ViewKind::kInterfacesBySubnet);
  EXPECT_GT(fresh->generation, held_generation);
  EXPECT_NE(fresh->view(ViewKind::kInterfacesBySubnet), before);
}

// --- Concurrency regressions (run under tools/check.sh tsan) ---

// Regression for an unlocked publication -Wthread-safety surfaced:
// JournalServer::set_subscription_broker used to write broker_ with no lock
// while concurrent dispatches read it under the *shared* ingest lock — and a
// ServeService attaches/detaches exactly that way from its constructor and
// destructor. TSan sees the torn publication when a service comes and goes
// mid-traffic; the fix takes the exclusive ingest lock for the attach.
TEST(ServeConcurrencyTest, BrokerAttachDetachDuringSharedLockTraffic) {
  JournalServer server([]() { return SimTime::Epoch(); });
  {
    JournalClient seed_client(&server);
    seed_client.StoreInterface(Obs(1), DiscoverySource::kArpWatch);
  }

  constexpr int kReaders = 3;
  constexpr int kReaderIterations = 500;
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&server, &go, &done]() {
      while (!go.load(std::memory_order_acquire)) {
      }
      JournalClient client(&server);
      for (int i = 0; i < kReaderIterations; ++i) {
        // Both requests take the shared ingest path; kSubscribe additionally
        // reads broker_ (null between services → kMalformedRequest, live
        // broker → kNotFound for an unknown channel — both are fine).
        (void)client.GetInterfaces();
        JournalRequest sub;
        sub.type = RequestType::kSubscribe;
        sub.subscriber_id = 999999;
        sub.view_mask = serve::kAllViewsMask;
        const ResponseStatus status = server.Handle(sub).status;
        EXPECT_TRUE(status == ResponseStatus::kMalformedRequest ||
                    status == ResponseStatus::kNotFound);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  go.store(true, std::memory_order_release);

  // Attach/detach brokers for as long as shared-lock traffic is in flight:
  // each ServeService construction and destruction writes broker_ under the
  // writer lock while the readers hold the shared side.
  while (done.load(std::memory_order_acquire) < kReaders) {
    ServeService service(&server, []() { return SimTime::Epoch(); });
    service.Refresh();
  }

  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_GT(server.requests_handled(),
            static_cast<uint64_t>(kReaders) * kReaderIterations);
}

}  // namespace
}  // namespace fremont
