// Tests for the shared Ethernet segment: delivery, filtering, taps, and the
// collision model.

#include "src/sim/segment.h"

#include <gtest/gtest.h>

#include <vector>

namespace fremont {
namespace {

class RecordingSink : public FrameSink {
 public:
  void OnFrame(Interface* iface, const FrameView& view) override {
    received.push_back({iface, view.frame()});
  }
  struct Received {
    Interface* iface;
    EthernetFrame frame;
  };
  std::vector<Received> received;
};

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest()
      : rng_(7),
        segment_("net", Subnet(Ipv4Address(10, 0, 0, 0), SubnetMask::FromPrefixLength(24)), {},
                 &events_, &rng_) {}

  Interface* MakeInterface(RecordingSink* sink, uint8_t mac_suffix, uint8_t ip_suffix) {
    auto iface = std::make_unique<Interface>();
    iface->owner = sink;
    iface->mac = MacAddress(2, 0, 0, 0, 0, mac_suffix);
    iface->ip = Ipv4Address(10, 0, 0, ip_suffix);
    iface->mask = SubnetMask::FromPrefixLength(24);
    interfaces_.push_back(std::move(iface));
    segment_.Attach(interfaces_.back().get());
    return interfaces_.back().get();
  }

  EthernetFrame Frame(MacAddress dst, MacAddress src) {
    EthernetFrame frame;
    frame.dst = dst;
    frame.src = src;
    frame.ethertype = EtherType::kIpv4;
    frame.payload = {0x42};
    return frame;
  }

  EventQueue events_;
  Rng rng_;
  Segment segment_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
};

TEST_F(SegmentTest, UnicastReachesOnlyTarget) {
  RecordingSink a, b, c;
  Interface* ia = MakeInterface(&a, 1, 1);
  Interface* ib = MakeInterface(&b, 2, 2);
  MakeInterface(&c, 3, 3);

  segment_.Transmit(Frame(ib->mac, ia->mac));
  events_.RunUntilIdle();
  EXPECT_TRUE(a.received.empty());
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].iface, ib);
  EXPECT_TRUE(c.received.empty());
}

TEST_F(SegmentTest, BroadcastReachesAllButSender) {
  RecordingSink a, b, c;
  Interface* ia = MakeInterface(&a, 1, 1);
  MakeInterface(&b, 2, 2);
  MakeInterface(&c, 3, 3);

  segment_.Transmit(Frame(MacAddress::Broadcast(), ia->mac));
  events_.RunUntilIdle();
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(SegmentTest, DownInterfaceReceivesNothing) {
  RecordingSink a, b;
  Interface* ia = MakeInterface(&a, 1, 1);
  Interface* ib = MakeInterface(&b, 2, 2);
  ib->up = false;
  segment_.Transmit(Frame(ib->mac, ia->mac));
  segment_.Transmit(Frame(MacAddress::Broadcast(), ia->mac));
  events_.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(SegmentTest, DeliveryIsDelayedByLatency) {
  RecordingSink a, b;
  Interface* ia = MakeInterface(&a, 1, 1);
  Interface* ib = MakeInterface(&b, 2, 2);
  segment_.Transmit(Frame(ib->mac, ia->mac));
  EXPECT_TRUE(b.received.empty());  // Not yet delivered.
  events_.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(SegmentTest, TapSeesAllTraffic) {
  RecordingSink a, b;
  Interface* ia = MakeInterface(&a, 1, 1);
  Interface* ib = MakeInterface(&b, 2, 2);

  int tapped = 0;
  const int token = segment_.AddTap([&](const EthernetFrame&, SimTime) { ++tapped; });
  segment_.Transmit(Frame(ib->mac, ia->mac));   // Unicast not aimed at tap owner.
  segment_.Transmit(Frame(MacAddress::Broadcast(), ia->mac));
  events_.RunUntilIdle();
  EXPECT_EQ(tapped, 2);

  segment_.RemoveTap(token);
  segment_.Transmit(Frame(ib->mac, ia->mac));
  events_.RunUntilIdle();
  EXPECT_EQ(tapped, 2);
}

TEST_F(SegmentTest, DetachStopsDelivery) {
  RecordingSink a, b;
  Interface* ia = MakeInterface(&a, 1, 1);
  Interface* ib = MakeInterface(&b, 2, 2);
  segment_.Detach(ib);
  EXPECT_EQ(ib->segment, nullptr);
  segment_.Transmit(Frame(ib->mac, ia->mac));
  events_.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(SegmentTest, StatsCountFrames) {
  RecordingSink a, b;
  Interface* ia = MakeInterface(&a, 1, 1);
  Interface* ib = MakeInterface(&b, 2, 2);
  segment_.Transmit(Frame(ib->mac, ia->mac));
  segment_.Transmit(Frame(ib->mac, ia->mac));
  events_.RunUntilIdle();
  EXPECT_EQ(segment_.stats().frames_sent, 2u);
  EXPECT_GT(segment_.stats().bytes_sent, 0u);
}

TEST(SegmentCollisionTest, BurstsLoseFramesSpacedTrafficDoesNot) {
  EventQueue events;
  Rng rng(99);
  SegmentParams params;
  params.loss_per_concurrent = 0.2;
  Segment segment("lossy", Subnet(Ipv4Address(10, 0, 0, 0), SubnetMask::FromPrefixLength(24)),
                  params, &events, &rng);

  RecordingSink receiver_sink;
  auto receiver = std::make_unique<Interface>();
  receiver->owner = &receiver_sink;
  receiver->mac = MacAddress(2, 0, 0, 0, 0, 1);
  receiver->ip = Ipv4Address(10, 0, 0, 1);
  segment.Attach(receiver.get());

  EthernetFrame frame;
  frame.dst = receiver->mac;

  // 50 frames from 50 different stations in one instant: expect drops.
  for (int i = 0; i < 50; ++i) {
    frame.src = MacAddress(2, 0, 0, 1, 0, static_cast<uint8_t>(i));
    segment.Transmit(frame);
  }
  events.RunUntilIdle();
  EXPECT_LT(receiver_sink.received.size(), 50u);
  EXPECT_GT(segment.stats().frames_dropped, 0u);

  // 50 frames from distinct stations spaced beyond the window: no drops.
  receiver_sink.received.clear();
  const uint64_t dropped_before = segment.stats().frames_dropped;
  for (int i = 0; i < 50; ++i) {
    frame.src = MacAddress(2, 0, 0, 2, 0, static_cast<uint8_t>(i));
    events.Schedule(Duration::Millis(10), [&segment, frame]() { segment.Transmit(frame); });
    events.RunUntilIdle();
  }
  EXPECT_EQ(segment.stats().frames_dropped, dropped_before);
  EXPECT_EQ(receiver_sink.received.size(), 50u);
}

}  // namespace
}  // namespace fremont
