// Tests for Router: forwarding, TTL handling (including the broken firmware
// modes), directed broadcast policy, host-zero, and proxy ARP.

#include "src/sim/router.h"

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace fremont {
namespace {

// Two subnets joined by one router:
//   left 10.0.1.0/24 (alice .10, router .1) — right 10.0.2.0/24 (bob .10, router .1)
class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_subnet_ = Subnet(Ipv4Address(10, 0, 1, 0), SubnetMask::FromPrefixLength(24));
    right_subnet_ = Subnet(Ipv4Address(10, 0, 2, 0), SubnetMask::FromPrefixLength(24));
    left_ = sim_.CreateSegment("left", left_subnet_);
    right_ = sim_.CreateSegment("right", right_subnet_);
    router_ = sim_.CreateRouter("gw", router_config_);
    router_left_ = router_->AttachTo(left_, left_subnet_.HostAt(1), left_subnet_.mask(),
                                     MacAddress(2, 0, 0, 0, 1, 1));
    router_right_ = router_->AttachTo(right_, right_subnet_.HostAt(1), right_subnet_.mask(),
                                      MacAddress(2, 0, 0, 0, 1, 2));
    alice_ = sim_.CreateHost("alice");
    alice_->AttachTo(left_, left_subnet_.HostAt(10), left_subnet_.mask(),
                     MacAddress(2, 0, 0, 0, 2, 1));
    alice_->SetDefaultGateway(router_left_->ip);
    bob_ = sim_.CreateHost("bob");
    bob_->AttachTo(right_, right_subnet_.HostAt(10), right_subnet_.mask(),
                   MacAddress(2, 0, 0, 0, 2, 2));
    bob_->SetDefaultGateway(router_right_->ip);
  }

  Simulator sim_{17};
  RouterConfig router_config_;
  Subnet left_subnet_, right_subnet_;
  Segment* left_ = nullptr;
  Segment* right_ = nullptr;
  Router* router_ = nullptr;
  Interface* router_left_ = nullptr;
  Interface* router_right_ = nullptr;
  Host* alice_ = nullptr;
  Host* bob_ = nullptr;
};

TEST_F(RouterTest, ForwardsAcrossSubnets) {
  ByteBuffer received;
  Ipv4Address seen_src;
  bob_->BindUdp(4000, [&](const Ipv4Packet& packet, const UdpDatagram& datagram) {
    received = datagram.payload;
    seen_src = packet.src;
  });
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 4000, {7, 8});
  sim_.events().RunUntilIdle();
  EXPECT_EQ(received, (ByteBuffer{7, 8}));
  EXPECT_EQ(seen_src, alice_->primary_interface()->ip);
  EXPECT_GE(router_->packets_forwarded(), 1u);
}

TEST_F(RouterTest, TtlDecrementedAcrossHops) {
  uint8_t seen_ttl = 0;
  bob_->BindUdp(4000, [&](const Ipv4Packet& packet, const UdpDatagram&) {
    seen_ttl = packet.ttl;
  });
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 4000, {}, 64);
  sim_.events().RunUntilIdle();
  EXPECT_EQ(seen_ttl, 63);
}

TEST_F(RouterTest, TtlExpiryProducesTimeExceeded) {
  bool time_exceeded = false;
  alice_->AddIcmpListener([&](const Ipv4Packet& packet, const IcmpMessage& message) {
    if (message.type == IcmpType::kTimeExceeded) {
      // The error comes from the near-side router interface.
      EXPECT_EQ(packet.src, router_left_->ip);
      time_exceeded = true;
    }
  });
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 33434, {}, 1);
  sim_.events().RunUntilIdle();
  EXPECT_TRUE(time_exceeded);
}

TEST_F(RouterTest, SilentTtlDropFault) {
  router_->router_config().silent_ttl_drop = true;
  bool any = false;
  alice_->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage&) { any = true; });
  alice_->SendUdp(bob_->primary_interface()->ip, 4001, 33434, {}, 1);
  sim_.events().RunUntilIdle();
  EXPECT_FALSE(any);
}

TEST_F(RouterTest, ReflectTtlFaultKillsErrorFromDistantRouters) {
  // A 2-router chain: alice — r1 — middle — r2 — far. A TTL-2 probe expires
  // at r2 with a received TTL of 1; a reflect-TTL router copies that 1 into
  // its Time Exceeded, which then dies at r1 on the way back — alice never
  // sees the hop (the paper: the error "does not arrive back at the source
  // until the TTL of the original packet is large enough for an entire
  // round trip"). A correct router's error (TTL 64) gets through.
  Subnet middle_subnet(Ipv4Address(10, 0, 3, 0), SubnetMask::FromPrefixLength(24));
  Subnet far_subnet(Ipv4Address(10, 0, 4, 0), SubnetMask::FromPrefixLength(24));
  Segment* middle = sim_.CreateSegment("middle", middle_subnet);
  Segment* far = sim_.CreateSegment("far", far_subnet);

  Router* r2 = sim_.CreateRouter("r2", {});
  Interface* r2_middle = r2->AttachTo(middle, middle_subnet.HostAt(2), middle_subnet.mask(),
                                      MacAddress(2, 0, 0, 0, 3, 1));
  r2->AttachTo(far, far_subnet.HostAt(1), far_subnet.mask(), MacAddress(2, 0, 0, 0, 3, 2));

  Interface* r1_middle = router_->AttachTo(middle, middle_subnet.HostAt(1),
                                           middle_subnet.mask(), MacAddress(2, 0, 0, 0, 3, 3));
  router_->routing_table().Learn(far_subnet, r2_middle->ip, r1_middle, 2, sim_.Now());
  r2->routing_table().Learn(left_subnet_, r1_middle->ip, r2_middle, 2, sim_.Now());

  int errors_from_r2 = 0;
  alice_->AddIcmpListener([&](const Ipv4Packet& packet, const IcmpMessage& message) {
    if (message.type == IcmpType::kTimeExceeded && packet.src == r2_middle->ip) {
      ++errors_from_r2;
    }
  });

  // Healthy firmware: the hop resolves.
  alice_->SendUdp(far_subnet.HostAt(10), 4001, 33434, {}, 2);
  sim_.events().RunUntilIdle();
  EXPECT_EQ(errors_from_r2, 1);

  // Broken firmware: the error is sent with the received TTL (1) and expires
  // at r1 before reaching alice.
  r2->router_config().reflects_ttl_in_errors = true;
  alice_->SendUdp(far_subnet.HostAt(10), 4002, 33435, {}, 2);
  sim_.events().RunUntilIdle();
  EXPECT_EQ(errors_from_r2, 1);  // Unchanged: the second error never arrived.
}

TEST_F(RouterTest, NoRouteYieldsNetUnreachable) {
  bool unreachable = false;
  alice_->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kDestUnreachable &&
        message.code == static_cast<uint8_t>(IcmpUnreachableCode::kNetUnreachable)) {
      unreachable = true;
    }
  });
  alice_->SendUdp(Ipv4Address(192, 168, 77, 1), 4001, 4000, {});
  sim_.events().RunUntilIdle();
  EXPECT_TRUE(unreachable);
}

TEST_F(RouterTest, DirectedBroadcastDroppedByDefault) {
  int bob_echoes = 0;
  alice_->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      ++bob_echoes;
    }
  });
  alice_->SendIcmp(right_subnet_.BroadcastAddress(), IcmpMessage::EchoRequest(9, 1), 8);
  sim_.events().RunUntilIdle();
  EXPECT_EQ(bob_echoes, 0);  // Storm protection: gateway refuses.
}

TEST_F(RouterTest, DirectedBroadcastForwardedWhenAllowed) {
  router_->router_config().forwards_directed_broadcast = true;
  int bob_echoes = 0;
  alice_->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      ++bob_echoes;
    }
  });
  alice_->SendIcmp(right_subnet_.BroadcastAddress(), IcmpMessage::EchoRequest(9, 1), 8);
  sim_.events().RunUntilIdle();
  EXPECT_EQ(bob_echoes, 1);
}

TEST_F(RouterTest, HostZeroOfAttachedSubnetAnsweredByRouter) {
  bool unreachable = false;
  alice_->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kDestUnreachable &&
        message.code == static_cast<uint8_t>(IcmpUnreachableCode::kPortUnreachable)) {
      unreachable = true;
    }
  });
  alice_->SendUdp(right_subnet_.HostZero(), 4001, 33434, {}, 8);
  sim_.events().RunUntilIdle();
  EXPECT_TRUE(unreachable);
}

TEST_F(RouterTest, RouterAnswersPingOnItsOwnInterfaces) {
  int replies = 0;
  alice_->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      ++replies;
    }
  });
  alice_->SendIcmp(router_left_->ip, IcmpMessage::EchoRequest(3, 1));
  alice_->SendIcmp(router_right_->ip, IcmpMessage::EchoRequest(3, 2));
  sim_.events().RunUntilIdle();
  EXPECT_EQ(replies, 2);
}

TEST_F(RouterTest, ProxyArpAnswersForRoutableHosts) {
  router_->router_config().proxy_arp = true;
  // Alice ARPs for bob (off-subnet) directly, as a host with a misconfigured
  // flat /8 mask would.
  ArpPacket request;
  request.op = ArpOp::kRequest;
  request.sender_mac = alice_->primary_interface()->mac;
  request.sender_ip = alice_->primary_interface()->ip;
  request.target_ip = bob_->primary_interface()->ip;
  EthernetFrame frame;
  frame.dst = MacAddress::Broadcast();
  frame.src = alice_->primary_interface()->mac;
  frame.ethertype = EtherType::kArp;
  frame.payload = request.Encode();
  left_->Transmit(frame);
  sim_.events().RunUntilIdle();
  auto cached = alice_->arp_cache().Lookup(bob_->primary_interface()->ip, sim_.Now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, router_left_->mac);  // The router answered on bob's behalf.
}

TEST_F(RouterTest, ProxyArpLocalBlock) {
  router_->router_config().proxy_arp_local_base = left_subnet_.HostAt(100);
  router_->router_config().proxy_arp_local_count = 8;
  ArpPacket request;
  request.op = ArpOp::kRequest;
  request.sender_mac = alice_->primary_interface()->mac;
  request.sender_ip = alice_->primary_interface()->ip;
  request.target_ip = left_subnet_.HostAt(103);  // Inside the proxied block.
  EthernetFrame frame;
  frame.dst = MacAddress::Broadcast();
  frame.src = alice_->primary_interface()->mac;
  frame.ethertype = EtherType::kArp;
  frame.payload = request.Encode();
  left_->Transmit(frame);
  sim_.events().RunUntilIdle();
  EXPECT_TRUE(alice_->arp_cache().Contains(left_subnet_.HostAt(103), sim_.Now()));

  // Outside the block: silence.
  request.target_ip = left_subnet_.HostAt(120);
  frame.payload = request.Encode();
  left_->Transmit(frame);
  sim_.events().RunUntilIdle();
  EXPECT_FALSE(alice_->arp_cache().Contains(left_subnet_.HostAt(120), sim_.Now()));
}

TEST_F(RouterTest, NoProxyArpByDefault) {
  ArpPacket request;
  request.op = ArpOp::kRequest;
  request.sender_mac = alice_->primary_interface()->mac;
  request.sender_ip = alice_->primary_interface()->ip;
  request.target_ip = bob_->primary_interface()->ip;
  EthernetFrame frame;
  frame.dst = MacAddress::Broadcast();
  frame.src = alice_->primary_interface()->mac;
  frame.ethertype = EtherType::kArp;
  frame.payload = request.Encode();
  left_->Transmit(frame);
  sim_.events().RunUntilIdle();
  EXPECT_FALSE(alice_->arp_cache().Contains(bob_->primary_interface()->ip, sim_.Now()));
}

}  // namespace
}  // namespace fremont
