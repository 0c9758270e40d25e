// Tests for the Host IP stack: ARP resolution and caching, ICMP echo and
// mask behaviour, UDP delivery, port unreachable, host-zero, and the
// configurable misbehaviours.

#include "src/sim/host.h"

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace fremont {
namespace {

class HostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    subnet_ = Subnet(Ipv4Address(10, 0, 0, 0), SubnetMask::FromPrefixLength(24));
    segment_ = sim_.CreateSegment("lan", subnet_);
    alice_ = sim_.CreateHost("alice");
    bob_ = sim_.CreateHost("bob");
    alice_->AttachTo(segment_, Ipv4Address(10, 0, 0, 1), subnet_.mask(),
                     MacAddress(2, 0, 0, 0, 0, 1));
    bob_->AttachTo(segment_, Ipv4Address(10, 0, 0, 2), subnet_.mask(),
                   MacAddress(2, 0, 0, 0, 0, 2));
  }

  Simulator sim_{5};
  Subnet subnet_;
  Segment* segment_ = nullptr;
  Host* alice_ = nullptr;
  Host* bob_ = nullptr;
};

TEST_F(HostTest, ArpResolutionThenDelivery) {
  ByteBuffer received;
  bob_->BindUdp(4000, [&](const Ipv4Packet&, const UdpDatagram& datagram) {
    received = datagram.payload;
  });
  EXPECT_TRUE(alice_->SendUdp(bob_->primary_interface()->ip, 4001, 4000, {1, 2, 3}));
  sim_.events().RunUntilIdle();
  EXPECT_EQ(received, (ByteBuffer{1, 2, 3}));
  // Both sides learned the binding (requester from the reply; responder from
  // the request).
  EXPECT_TRUE(alice_->arp_cache().Contains(bob_->primary_interface()->ip, sim_.Now()));
  EXPECT_TRUE(bob_->arp_cache().Contains(alice_->primary_interface()->ip, sim_.Now()));
}

TEST_F(HostTest, PacketsQueueBehindArpResolution) {
  int received = 0;
  bob_->BindUdp(4000, [&](const Ipv4Packet&, const UdpDatagram&) { ++received; });
  // Three sends before any resolution completes: one ARP request, all three
  // packets delivered after the reply.
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 4000, {1});
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 4000, {2});
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 4000, {3});
  sim_.events().RunUntilIdle();
  EXPECT_EQ(received, 3);
}

TEST_F(HostTest, ArpGivesUpOnSilentTarget) {
  EXPECT_TRUE(alice_->SendUdp(Ipv4Address(10, 0, 0, 99), 4001, 4000, {1}));
  sim_.events().RunUntilIdle();
  EXPECT_FALSE(alice_->arp_cache().Contains(Ipv4Address(10, 0, 0, 99), sim_.Now()));
}

TEST_F(HostTest, ArpCacheExpires) {
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 4000, {1});
  sim_.events().RunUntilIdle();
  ASSERT_TRUE(alice_->arp_cache().Contains(bob_->primary_interface()->ip, sim_.Now()));
  // Default timeout is 20 minutes.
  EXPECT_FALSE(alice_->arp_cache().Contains(bob_->primary_interface()->ip,
                                            sim_.Now() + Duration::Minutes(21)));
}

TEST_F(HostTest, EchoRequestGetsReply) {
  int replies = 0;
  alice_->SetIcmpListener([&](const Ipv4Packet& packet, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      EXPECT_EQ(packet.src, bob_->primary_interface()->ip);
      EXPECT_EQ(message.identifier, 77);
      ++replies;
    }
  });
  alice_->SendIcmp(bob_->primary_interface()->ip, IcmpMessage::EchoRequest(77, 1));
  sim_.events().RunUntilIdle();
  EXPECT_EQ(replies, 1);
}

TEST_F(HostTest, EchoDisabledHostIsSilent) {
  bob_->config().responds_to_echo = false;
  int replies = 0;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      ++replies;
    }
  });
  alice_->SendIcmp(bob_->primary_interface()->ip, IcmpMessage::EchoRequest(77, 1));
  sim_.events().RunUntilIdle();
  EXPECT_EQ(replies, 0);
}

TEST_F(HostTest, BroadcastPingAnswered) {
  int replies = 0;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      ++replies;
    }
  });
  alice_->SendIcmp(subnet_.BroadcastAddress(), IcmpMessage::EchoRequest(77, 1), 1);
  sim_.events().RunUntilIdle();
  EXPECT_EQ(replies, 1);  // Bob answers; alice doesn't answer herself.

  bob_->config().responds_to_broadcast_ping = false;
  replies = 0;
  alice_->SendIcmp(subnet_.BroadcastAddress(), IcmpMessage::EchoRequest(77, 2), 1);
  sim_.events().RunUntilIdle();
  EXPECT_EQ(replies, 0);
}

TEST_F(HostTest, MaskRequestHonest) {
  uint32_t mask = 0;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kMaskReply) {
      mask = message.address_mask;
    }
  });
  alice_->SendIcmp(bob_->primary_interface()->ip, IcmpMessage::MaskRequest(1, 1));
  sim_.events().RunUntilIdle();
  EXPECT_EQ(mask, SubnetMask::FromPrefixLength(24).value());
}

TEST_F(HostTest, MaskRequestMisconfigured) {
  bob_->config().wrong_advertised_mask = SubnetMask::FromPrefixLength(16);
  uint32_t mask = 0;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kMaskReply) {
      mask = message.address_mask;
    }
  });
  alice_->SendIcmp(bob_->primary_interface()->ip, IcmpMessage::MaskRequest(1, 1));
  sim_.events().RunUntilIdle();
  EXPECT_EQ(mask, SubnetMask::FromPrefixLength(16).value());
}

TEST_F(HostTest, MaskRequestCanBeDisabled) {
  bob_->config().responds_to_mask_request = false;
  bool any = false;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage&) { any = true; });
  alice_->SendIcmp(bob_->primary_interface()->ip, IcmpMessage::MaskRequest(1, 1));
  sim_.events().RunUntilIdle();
  EXPECT_FALSE(any);
}

TEST_F(HostTest, UdpEchoService) {
  ByteBuffer echoed;
  alice_->BindUdp(5123, [&](const Ipv4Packet&, const UdpDatagram& datagram) {
    echoed = datagram.payload;
  });
  alice_->SendUdp(bob_->primary_interface()->ip, 5123, kUdpEchoPort, {0xaa, 0xbb});
  sim_.events().RunUntilIdle();
  EXPECT_EQ(echoed, (ByteBuffer{0xaa, 0xbb}));
}

TEST_F(HostTest, UnboundPortYieldsPortUnreachable) {
  bool unreachable = false;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kDestUnreachable &&
        message.code == static_cast<uint8_t>(IcmpUnreachableCode::kPortUnreachable)) {
      // The embedded original datagram must identify the offending probe.
      auto original = Ipv4Packet::Decode(message.original_datagram);
      ASSERT_TRUE(original.has_value());
      EXPECT_EQ(original->dst, bob_->primary_interface()->ip);
      unreachable = true;
    }
  });
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 33434, {});
  sim_.events().RunUntilIdle();
  EXPECT_TRUE(unreachable);
}

TEST_F(HostTest, BroadcastUdpNeverTriggersUnreachable) {
  bool any_icmp = false;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage&) { any_icmp = true; });
  Ipv4Packet packet;
  packet.protocol = IpProtocol::kUdp;
  packet.src = alice_->primary_interface()->ip;
  packet.dst = subnet_.BroadcastAddress();
  UdpDatagram datagram;
  datagram.src_port = 1;
  datagram.dst_port = 9999;
  packet.payload = datagram.Encode();
  alice_->SendIpPacket(std::move(packet));
  sim_.events().RunUntilIdle();
  EXPECT_FALSE(any_icmp);
}

TEST_F(HostTest, CorruptBroadcastReachesNoHandlerValidOneReachesEvery) {
  Host* carol = sim_.CreateHost("carol");
  carol->AttachTo(segment_, Ipv4Address(10, 0, 0, 3), subnet_.mask(),
                  MacAddress(2, 0, 0, 0, 0, 3));
  Host* dave = sim_.CreateHost("dave");
  dave->AttachTo(segment_, Ipv4Address(10, 0, 0, 4), subnet_.mask(),
                 MacAddress(2, 0, 0, 0, 0, 4));
  struct Heard {
    Ipv4Address src;
    uint16_t src_port;
    ByteBuffer payload;
  };
  std::vector<std::vector<Heard>> heard(3);
  const std::vector<Host*> receivers = {bob_, carol, dave};
  for (size_t i = 0; i < receivers.size(); ++i) {
    receivers[i]->BindUdp(5000, [&heard, i](const Ipv4Packet& packet,
                                            const UdpDatagram& datagram) {
      heard[i].push_back({packet.src, datagram.src_port, datagram.payload});
    });
  }

  Ipv4Packet packet;
  packet.identification = 77;
  packet.protocol = IpProtocol::kUdp;
  packet.src = alice_->primary_interface()->ip;
  packet.dst = subnet_.BroadcastAddress();
  UdpDatagram datagram;
  datagram.src_port = 4001;
  datagram.dst_port = 5000;
  datagram.payload = {7, 8, 9};
  packet.payload = datagram.Encode();
  EthernetFrame frame;
  frame.dst = MacAddress::Broadcast();
  frame.src = alice_->primary_interface()->mac;
  frame.ethertype = EtherType::kIpv4;
  frame.payload = packet.Encode();

  // A corrupted header checksum: every receiver drops the packet.
  EthernetFrame corrupted = frame;
  corrupted.payload[10] ^= 0x01;
  segment_->Transmit(corrupted);
  sim_.events().RunUntilIdle();
  for (const auto& one : heard) {
    EXPECT_TRUE(one.empty());
  }

  segment_->Transmit(frame);
  sim_.events().RunUntilIdle();
  for (const auto& one : heard) {
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].src, alice_->primary_interface()->ip);
    EXPECT_EQ(one[0].src_port, 4001);
    EXPECT_EQ(one[0].payload, (ByteBuffer{7, 8, 9}));
  }
}

TEST_F(HostTest, HostZeroAccepted) {
  bool unreachable = false;
  alice_->SetIcmpListener([&](const Ipv4Packet& packet, const IcmpMessage& message) {
    if (message.type == IcmpType::kDestUnreachable) {
      EXPECT_EQ(packet.src, bob_->primary_interface()->ip);
      unreachable = true;
    }
  });
  // A UDP probe to host zero: bob treats it as his own and answers Port
  // Unreachable — exactly what Fremont's traceroute exploits. (Bob receives
  // it because host-zero is sent as link broadcast? No — it must be ARPed;
  // in practice the gateway answers. On a flat segment nobody owns .0, so
  // route it via bob's MAC directly using a raw frame path: simpler, send to
  // bob's unicast IP is covered elsewhere. Here we hand-deliver.)
  Ipv4Packet packet;
  packet.protocol = IpProtocol::kUdp;
  packet.src = alice_->primary_interface()->ip;
  packet.dst = subnet_.HostZero();
  UdpDatagram datagram;
  datagram.src_port = 4001;
  datagram.dst_port = 33434;
  packet.payload = datagram.Encode();
  EthernetFrame frame;
  frame.dst = bob_->primary_interface()->mac;
  frame.src = alice_->primary_interface()->mac;
  frame.ethertype = EtherType::kIpv4;
  frame.payload = packet.Encode();
  segment_->Transmit(frame);
  sim_.events().RunUntilIdle();
  EXPECT_TRUE(unreachable);

  // With host-zero acceptance off, the packet is ignored (hosts don't
  // forward).
  bob_->config().accepts_host_zero = false;
  unreachable = false;
  segment_->Transmit(frame);
  sim_.events().RunUntilIdle();
  EXPECT_FALSE(unreachable);
}

TEST_F(HostTest, DownHostAnswersNothing) {
  bob_->SetUp(false);
  int events = 0;
  alice_->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage&) { ++events; });
  alice_->SendIcmp(bob_->primary_interface()->ip, IcmpMessage::EchoRequest(1, 1));
  alice_->SendUdp(bob_->primary_interface()->ip, 1, kUdpEchoPort, {});
  sim_.events().RunUntilIdle();
  EXPECT_EQ(events, 0);
  // Power-off also cleared bob's volatile state.
  EXPECT_EQ(bob_->arp_cache().RawSize(), 0u);

  bob_->SetUp(true);
  alice_->SendIcmp(bob_->primary_interface()->ip, IcmpMessage::EchoRequest(1, 2));
  sim_.events().RunUntilIdle();
  EXPECT_EQ(events, 1);
}

TEST_F(HostTest, OffSubnetWithoutGatewayFails) {
  EXPECT_FALSE(alice_->SendUdp(Ipv4Address(10, 0, 5, 1), 1, 2, {}));
}

TEST_F(HostTest, DuplicateIpBothAnswerArp) {
  // A third host squats on bob's address: alice's ARP gets two replies and
  // her cache ends up with whichever arrived last.
  Host* rogue = sim_.CreateHost("rogue");
  rogue->AttachTo(segment_, bob_->primary_interface()->ip, subnet_.mask(),
                  MacAddress(2, 0, 0, 0, 0, 9));
  alice_->SendUdp(bob_->primary_interface()->ip, 1, 9999, {});
  sim_.events().RunUntilIdle();
  auto cached = alice_->arp_cache().Lookup(bob_->primary_interface()->ip, sim_.Now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(*cached == bob_->primary_interface()->mac ||
              *cached == rogue->primary_interface()->mac);
}

TEST_F(HostTest, OversizedUdpRefused) {
  ByteBuffer huge(70000, 0);
  EXPECT_FALSE(alice_->SendUdp(bob_->primary_interface()->ip, 1, 2, std::move(huge)));
}

TEST(HostReflectTtlTest, TracerouteTerminalResolvesAtRoundTripTtl) {
  // vantage —[lan]— r1 —[middle]— r2 —[far]— buggy host (.10).
  // The destination is 3 hops away and reflects the probe's remaining TTL in
  // its Port Unreachable. Probe TTL 3 arrives with TTL 1; the reflected
  // reply dies before coming home. Only at probe TTL ≥ 5 does the reply
  // survive the 3-hop return — traceroute still gets its terminal, just at
  // a higher TTL ("The Traceroute Explorer Module can handle most of the
  // common failure modes").
  Simulator sim(41);
  Subnet lan = *Subnet::Parse("10.8.1.0/24");
  Subnet middle = *Subnet::Parse("10.8.2.0/24");
  Subnet far = *Subnet::Parse("10.8.3.0/24");
  Segment* seg_lan = sim.CreateSegment("lan", lan);
  Segment* seg_middle = sim.CreateSegment("middle", middle);
  Segment* seg_far = sim.CreateSegment("far", far);

  Router* r1 = sim.CreateRouter("r1", {});
  Interface* r1_lan = r1->AttachTo(seg_lan, lan.HostAt(1), lan.mask(),
                                   MacAddress(2, 0, 0, 8, 0, 1));
  Interface* r1_mid = r1->AttachTo(seg_middle, middle.HostAt(1), middle.mask(),
                                   MacAddress(2, 0, 0, 8, 0, 2));
  Router* r2 = sim.CreateRouter("r2", {});
  Interface* r2_mid = r2->AttachTo(seg_middle, middle.HostAt(2), middle.mask(),
                                   MacAddress(2, 0, 0, 8, 0, 3));
  r2->AttachTo(seg_far, far.HostAt(1), far.mask(), MacAddress(2, 0, 0, 8, 0, 4));
  r1->routing_table().Learn(far, r2_mid->ip, r1_mid, 2, sim.Now());
  r2->routing_table().Learn(lan, r1_mid->ip, r2_mid, 2, sim.Now());

  HostConfig buggy;
  buggy.reflects_ttl_in_replies = true;
  Host* destination = sim.CreateHost("buggy", buggy);
  destination->AttachTo(seg_far, far.HostAt(10), far.mask(), MacAddress(2, 0, 0, 8, 0, 5));
  destination->SetDefaultGateway(far.HostAt(1));

  Host* vantage = sim.CreateHost("vantage");
  vantage->AttachTo(seg_lan, lan.HostAt(250), lan.mask(), MacAddress(2, 0, 0, 8, 0, 6));
  vantage->SetDefaultGateway(r1_lan->ip);

  // A probe with round-trip TTL gets an answer; one with only one-way TTL
  // does not, because the buggy destination reflects the remaining TTL.
  int unreachables = 0;
  vantage->SetIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kDestUnreachable) {
      ++unreachables;
    }
  });
  vantage->SendUdp(destination->primary_interface()->ip, 4001, 33434, {}, 3);  // One-way only.
  sim.RunFor(Duration::Seconds(5));
  EXPECT_EQ(unreachables, 0);  // Reply died en route (left with TTL 1).
  vantage->SendUdp(destination->primary_interface()->ip, 4002, 33435, {}, 6);  // Round trip.
  sim.RunFor(Duration::Seconds(5));
  EXPECT_EQ(unreachables, 1);
}

}  // namespace
}  // namespace fremont
