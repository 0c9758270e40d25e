// Behavioural tests for the simulator substrate beyond the basic host/router
// suites: ARP retry/flush mechanics, duplicate-IP flapping over time, IP
// identification counters, traffic generator statistics, and routing loops.

#include <gtest/gtest.h>

#include <set>

#include "src/sim/simulator.h"
#include "src/sim/traffic.h"

namespace fremont {
namespace {

Subnet Net(const char* text) { return *Subnet::Parse(text); }

TEST(ArpMechanicsTest, RetriesThenGivesUp) {
  Simulator sim(1);
  Segment* lan = sim.CreateSegment("lan", Net("10.0.0.0/24"));
  HostConfig config;
  config.arp_max_retries = 3;
  config.arp_retry_interval = Duration::Seconds(1);
  Host* alice = sim.CreateHost("alice", config);
  alice->AttachTo(lan, Ipv4Address(10, 0, 0, 1), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 1));

  int arp_requests = 0;
  lan->AddTap([&](const EthernetFrame& frame, SimTime) {
    if (frame.ethertype == EtherType::kArp) {
      ++arp_requests;
    }
  });
  alice->SendUdp(Ipv4Address(10, 0, 0, 99), 1, 2, {});
  sim.events().RunUntilIdle();
  // Initial request + (max_retries - 1) retries before the give-up erase.
  EXPECT_GE(arp_requests, 2);
  EXPECT_LE(arp_requests, 3);
}

TEST(ArpMechanicsTest, LateJoinerIsResolvableAfterRetry) {
  Simulator sim(2);
  Segment* lan = sim.CreateSegment("lan", Net("10.0.0.0/24"));
  Host* alice = sim.CreateHost("alice");
  alice->AttachTo(lan, Ipv4Address(10, 0, 0, 1), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 1));
  Host* bob = sim.CreateHost("bob");
  bob->AttachTo(lan, Ipv4Address(10, 0, 0, 2), SubnetMask::FromPrefixLength(24),
                MacAddress(2, 0, 0, 0, 0, 2));
  bob->SetUp(false);

  int delivered = 0;
  bob->BindUdp(4000, [&](const Ipv4Packet&, const UdpDatagram&) { ++delivered; });

  alice->SendUdp(bob->primary_interface()->ip, 1, 4000, {});
  // Bob powers on between the first request and the first retry.
  sim.events().Schedule(Duration::Millis(600), [&]() { bob->SetUp(true); });
  sim.events().RunUntilIdle();
  EXPECT_EQ(delivered, 1);  // The queued packet went out after the retry hit.
}

TEST(ArpMechanicsTest, DuplicateIpFlapsOverTime) {
  // The intro's scenario: two hosts on one address make communication
  // unreliable. With both claimants answering every ARP, the winner is
  // whichever reply lands last; across many cache expiries both MACs win
  // sometimes.
  Simulator sim(3);
  Segment* lan = sim.CreateSegment("lan", Net("10.0.0.0/24"));
  Host* alice = sim.CreateHost("alice");
  alice->AttachTo(lan, Ipv4Address(10, 0, 0, 1), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 1));
  Host* real_host = sim.CreateHost("real");
  real_host->AttachTo(lan, Ipv4Address(10, 0, 0, 5), SubnetMask::FromPrefixLength(24),
                      MacAddress(2, 0, 0, 0, 0, 5));
  Host* squatter = sim.CreateHost("squatter");
  squatter->AttachTo(lan, Ipv4Address(10, 0, 0, 5), SubnetMask::FromPrefixLength(24),
                     MacAddress(2, 0, 0, 0, 0, 6));

  std::set<uint64_t> winners;
  for (int round = 0; round < 20; ++round) {
    alice->arp_cache().Clear();  // Simulate cache expiry between rounds.
    alice->SendUdp(Ipv4Address(10, 0, 0, 5), 1, 9999, {});
    sim.RunFor(Duration::Seconds(30));
    auto mac = alice->arp_cache().Lookup(Ipv4Address(10, 0, 0, 5), sim.Now());
    if (mac.has_value()) {
      winners.insert(mac->ToU64());
    }
  }
  // Both claimants won at least once: the flapping that breaks connections.
  EXPECT_EQ(winners.size(), 2u);
}

TEST(IpStackTest, IdentificationIncrements) {
  Simulator sim(4);
  Segment* lan = sim.CreateSegment("lan", Net("10.0.0.0/24"));
  Host* alice = sim.CreateHost("alice");
  alice->AttachTo(lan, Ipv4Address(10, 0, 0, 1), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 1));
  Host* bob = sim.CreateHost("bob");
  bob->AttachTo(lan, Ipv4Address(10, 0, 0, 2), SubnetMask::FromPrefixLength(24),
                MacAddress(2, 0, 0, 0, 0, 2));

  std::vector<uint16_t> ids;
  bob->BindUdp(4000, [&](const Ipv4Packet& packet, const UdpDatagram&) {
    ids.push_back(packet.identification);
  });
  for (int i = 0; i < 5; ++i) {
    alice->SendUdp(bob->primary_interface()->ip, 1, 4000, {});
    sim.events().RunUntilIdle();
  }
  ASSERT_EQ(ids.size(), 5u);
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<uint16_t>(ids[i - 1] + 1));
  }
}

TEST(TrafficGeneratorTest, RespectsStopAndRates) {
  Simulator sim(5);
  Segment* lan = sim.CreateSegment("lan", Net("10.0.0.0/24"));
  TrafficGenerator traffic(&sim.events(), &sim.rng());
  for (uint8_t i = 0; i < 10; ++i) {
    Host* host = sim.CreateHost("h" + std::to_string(i));
    host->AttachTo(lan, Ipv4Address(10, 0, 0, static_cast<uint8_t>(10 + i)),
                   SubnetMask::FromPrefixLength(24), MacAddress(2, 0, 0, 0, 1, i));
    traffic.AddHost(host, Duration::Minutes(10));
  }
  traffic.Start();
  sim.RunFor(Duration::Hours(10));
  // 10 hosts at ~6 sends/hour over 10 hours ≈ 600 expected; allow wide slack.
  EXPECT_GT(traffic.messages_sent(), 300u);
  EXPECT_LT(traffic.messages_sent(), 1200u);

  const uint64_t at_stop = traffic.messages_sent();
  traffic.Stop();
  sim.RunFor(Duration::Hours(10));
  EXPECT_EQ(traffic.messages_sent(), at_stop);
}

TEST(RoutingLoopTest, PacketDiesByTtlNotForever) {
  // Two routers each believing the other owns 10.9.0.0/24: a packet bounces
  // until its TTL expires, then exactly one Time Exceeded comes back.
  Simulator sim(6);
  Segment* lan = sim.CreateSegment("lan", Net("10.0.1.0/24"));
  Segment* middle = sim.CreateSegment("middle", Net("10.0.2.0/24"));

  Router* r1 = sim.CreateRouter("r1", {});
  Interface* r1_lan = r1->AttachTo(lan, Ipv4Address(10, 0, 1, 1), SubnetMask::FromPrefixLength(24),
                                   MacAddress(2, 0, 0, 0, 0, 1));
  Interface* r1_mid = r1->AttachTo(middle, Ipv4Address(10, 0, 2, 1),
                                   SubnetMask::FromPrefixLength(24), MacAddress(2, 0, 0, 0, 0, 2));
  Router* r2 = sim.CreateRouter("r2", {});
  Interface* r2_mid = r2->AttachTo(middle, Ipv4Address(10, 0, 2, 2),
                                   SubnetMask::FromPrefixLength(24), MacAddress(2, 0, 0, 0, 0, 3));
  // The loop: r1 → r2 → r1 for the phantom subnet.
  r1->routing_table().Learn(Net("10.9.0.0/24"), r2_mid->ip, r1_mid, 2, sim.Now());
  r2->routing_table().Learn(Net("10.9.0.0/24"), r1_mid->ip, r2_mid, 3, sim.Now());
  r2->routing_table().Learn(Net("10.0.1.0/24"), r1_mid->ip, r2_mid, 2, sim.Now());

  Host* alice = sim.CreateHost("alice");
  alice->AttachTo(lan, Ipv4Address(10, 0, 1, 10), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 9));
  alice->SetDefaultGateway(r1_lan->ip);

  int time_exceeded = 0;
  alice->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kTimeExceeded) {
      ++time_exceeded;
    }
  });
  const uint64_t frames_before = middle->stats().frames_sent;
  alice->SendUdp(Ipv4Address(10, 9, 0, 5), 1, 33434, {}, 16);
  sim.events().RunUntilIdle();  // Terminates: the loop is TTL-bounded.
  EXPECT_EQ(time_exceeded, 1);
  // The packet crossed the middle segment about TTL-1 times.
  const uint64_t bounces = middle->stats().frames_sent - frames_before;
  EXPECT_GE(bounces, 12u);
  EXPECT_LE(bounces, 20u);
}

TEST(SegmentStatsTest, ByteAccountingMatchesTraffic) {
  Simulator sim(7);
  Segment* lan = sim.CreateSegment("lan", Net("10.0.0.0/24"));
  Host* alice = sim.CreateHost("alice");
  alice->AttachTo(lan, Ipv4Address(10, 0, 0, 1), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 1));
  Host* bob = sim.CreateHost("bob");
  bob->AttachTo(lan, Ipv4Address(10, 0, 0, 2), SubnetMask::FromPrefixLength(24),
                MacAddress(2, 0, 0, 0, 0, 2));
  bob->BindUdp(4000, [](const Ipv4Packet&, const UdpDatagram&) {});

  alice->SendUdp(bob->primary_interface()->ip, 1, 4000, ByteBuffer(100, 0xaa));
  sim.events().RunUntilIdle();
  // ARP request + ARP reply + the 100-byte datagram.
  EXPECT_EQ(lan->stats().frames_sent, 3u);
  // The data frame alone is 14 (ether) + 20 (ip) + 8 (udp) + 100 = 142 bytes.
  EXPECT_GT(lan->stats().bytes_sent, 142u);
  EXPECT_LT(lan->stats().bytes_sent, 142u + 2 * 80u);
}

TEST(RouterLifecycleTest, DownRouterPartitionsAndRecoers) {
  Simulator sim(8);
  Segment* lan_a = sim.CreateSegment("a", Net("10.0.1.0/24"));
  Segment* lan_b = sim.CreateSegment("b", Net("10.0.2.0/24"));
  Router* gw = sim.CreateRouter("gw", {});
  Interface* gw_a = gw->AttachTo(lan_a, Ipv4Address(10, 0, 1, 1),
                                 SubnetMask::FromPrefixLength(24), MacAddress(2, 0, 0, 0, 0, 1));
  gw->AttachTo(lan_b, Ipv4Address(10, 0, 2, 1), SubnetMask::FromPrefixLength(24),
               MacAddress(2, 0, 0, 0, 0, 2));
  Host* alice = sim.CreateHost("alice");
  alice->AttachTo(lan_a, Ipv4Address(10, 0, 1, 10), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 3));
  alice->SetDefaultGateway(gw_a->ip);
  Host* bob = sim.CreateHost("bob");
  bob->AttachTo(lan_b, Ipv4Address(10, 0, 2, 10), SubnetMask::FromPrefixLength(24),
                MacAddress(2, 0, 0, 0, 0, 4));
  bob->SetDefaultGateway(Ipv4Address(10, 0, 2, 1));

  int replies = 0;
  alice->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      ++replies;
    }
  });
  auto ping = [&](uint16_t seq) {
    alice->SendIcmp(bob->primary_interface()->ip, IcmpMessage::EchoRequest(1, seq));
    sim.RunFor(Duration::Seconds(10));
  };
  ping(1);
  EXPECT_EQ(replies, 1);
  gw->SetUp(false);
  ping(2);
  EXPECT_EQ(replies, 1);  // Partitioned.
  gw->SetUp(true);
  ping(3);
  EXPECT_EQ(replies, 2);  // Recovered.
}

}  // namespace
}  // namespace fremont
