// Tests for the RIP daemon: advertisement, learning, split horizon, route
// expiry / failover, and the promiscuous-host fault mode.

#include "src/sim/rip_daemon.h"

#include <gtest/gtest.h>

#include "src/net/udp.h"
#include "src/sim/simulator.h"

namespace fremont {
namespace {

Subnet Net(const char* text) { return *Subnet::Parse(text); }

// Captures RIP packets seen on a segment.
class RipSniffer {
 public:
  explicit RipSniffer(Segment* segment) {
    token_ = segment->AddTap([this](const EthernetFrame& frame, SimTime) {
      if (frame.ethertype != EtherType::kIpv4) {
        return;
      }
      auto packet = Ipv4Packet::Decode(frame.payload);
      if (!packet.has_value() || packet->protocol != IpProtocol::kUdp) {
        return;
      }
      auto datagram = UdpDatagram::Decode(packet->payload);
      if (!datagram.has_value() || datagram->dst_port != kRipPort) {
        return;
      }
      auto rip = RipPacket::Decode(datagram->payload);
      if (rip.has_value()) {
        packets.push_back({packet->src, *rip});
      }
    });
    segment_ = segment;
  }
  ~RipSniffer() { segment_->RemoveTap(token_); }

  std::vector<std::pair<Ipv4Address, RipPacket>> packets;

 private:
  Segment* segment_;
  int token_;
};

class RipDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lan_a_ = sim_.CreateSegment("a", Net("10.0.1.0/24"));
    lan_b_ = sim_.CreateSegment("b", Net("10.0.2.0/24"));
    backbone_ = sim_.CreateSegment("bb", Net("10.0.0.0/24"));
    r1_ = sim_.CreateRouter("r1", {});
    r1_a_ = r1_->AttachTo(lan_a_, Ipv4Address(10, 0, 1, 1), SubnetMask::FromPrefixLength(24),
                          MacAddress(2, 0, 0, 0, 0, 1));
    r1_bb_ = r1_->AttachTo(backbone_, Ipv4Address(10, 0, 0, 1), SubnetMask::FromPrefixLength(24),
                           MacAddress(2, 0, 0, 0, 0, 2));
    r2_ = sim_.CreateRouter("r2", {});
    r2_->AttachTo(lan_b_, Ipv4Address(10, 0, 2, 1), SubnetMask::FromPrefixLength(24),
                  MacAddress(2, 0, 0, 0, 0, 3));
    r2_bb_ = r2_->AttachTo(backbone_, Ipv4Address(10, 0, 0, 2), SubnetMask::FromPrefixLength(24),
                           MacAddress(2, 0, 0, 0, 0, 4));
  }

  Simulator sim_{31};
  Segment* lan_a_ = nullptr;
  Segment* lan_b_ = nullptr;
  Segment* backbone_ = nullptr;
  Router* r1_ = nullptr;
  Router* r2_ = nullptr;
  Interface* r1_a_ = nullptr;
  Interface* r1_bb_ = nullptr;
  Interface* r2_bb_ = nullptr;
};

TEST_F(RipDaemonTest, RoutersLearnEachOthersSubnets) {
  RipDaemon d1(r1_, r1_, {});
  RipDaemon d2(r2_, r2_, {});
  d1.Start();
  d2.Start();
  sim_.RunFor(Duration::Minutes(2));

  auto route = r1_->routing_table().Lookup(Ipv4Address(10, 0, 2, 50));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->gateway, r2_bb_->ip);
  EXPECT_EQ(route->metric, 2u);

  route = r2_->routing_table().Lookup(Ipv4Address(10, 0, 1, 50));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->gateway, r1_bb_->ip);
}

TEST_F(RipDaemonTest, SplitHorizonSuppressesBackAdvertisement) {
  RipDaemon d1(r1_, r1_, {});
  d1.Start();
  RipSniffer sniffer(lan_a_);
  sim_.RunFor(Duration::Minutes(2));

  ASSERT_FALSE(sniffer.packets.empty());
  for (const auto& [src, packet] : sniffer.packets) {
    for (const auto& entry : packet.entries) {
      // The lan_a subnet route points out the lan_a interface: never
      // advertised onto lan_a itself.
      EXPECT_NE(entry.address, Ipv4Address(10, 0, 1, 0));
    }
  }
}

TEST_F(RipDaemonTest, RespondsToRequests) {
  RipDaemon d1(r1_, r1_, {});
  d1.Start();
  Host* client = sim_.CreateHost("client");
  client->AttachTo(lan_a_, Ipv4Address(10, 0, 1, 9), SubnetMask::FromPrefixLength(24),
                   MacAddress(2, 0, 0, 0, 0, 9));

  std::vector<RipEntry> received;
  client->BindUdp(3000, [&](const Ipv4Packet&, const UdpDatagram& datagram) {
    auto rip = RipPacket::Decode(datagram.payload);
    if (rip.has_value()) {
      received = rip->entries;
    }
  });
  RipPacket request;
  request.command = RipCommand::kRequest;
  client->SendUdp(r1_a_->ip, 3000, kRipPort, request.Encode(), 1);
  sim_.RunFor(Duration::Seconds(5));
  // Full table: both connected subnets of r1.
  EXPECT_EQ(received.size(), 2u);
}

TEST_F(RipDaemonTest, RouteExpiresWhenNeighborDies) {
  RipDaemonConfig fast;
  fast.advertise_interval = Duration::Seconds(30);
  fast.route_max_age = Duration::Seconds(180);
  RipDaemon d1(r1_, r1_, fast);
  RipDaemon d2(r2_, r2_, fast);
  d1.Start();
  d2.Start();
  sim_.RunFor(Duration::Minutes(2));
  ASSERT_TRUE(r1_->routing_table().Lookup(Ipv4Address(10, 0, 2, 5)).has_value());

  r2_->SetUp(false);  // Neighbour dies; its advertisements stop.
  sim_.RunFor(Duration::Minutes(5));
  EXPECT_FALSE(r1_->routing_table().Lookup(Ipv4Address(10, 0, 2, 5)).has_value());
}

TEST_F(RipDaemonTest, RedundantPathAppearsWhenPrimaryDies) {
  // A second path to lan_b via r3 with a worse metric: invisible while r2 is
  // healthy, advertised (and used) after r2 dies — the paper's "lower
  // priority, redundant path ... discovered only when the primary path is
  // down".
  // The detour: backbone — r3 — serial — r4 — lan_b. While r2 is healthy
  // every router prefers the 2-hop path through it; the longer path exists
  // silently. When r2 dies, routes expire and the serial detour propagates.
  Router* r3 = sim_.CreateRouter("r3", {});
  Interface* r3_bb = r3->AttachTo(backbone_, Ipv4Address(10, 0, 0, 3),
                                  SubnetMask::FromPrefixLength(24), MacAddress(2, 0, 0, 0, 0, 5));
  Segment* serial = sim_.CreateSegment("serial", Net("10.0.9.0/24"));
  r3->AttachTo(serial, Ipv4Address(10, 0, 9, 1), SubnetMask::FromPrefixLength(24),
               MacAddress(2, 0, 0, 0, 0, 6));
  Router* r4 = sim_.CreateRouter("r4", {});
  r4->AttachTo(serial, Ipv4Address(10, 0, 9, 2), SubnetMask::FromPrefixLength(24),
               MacAddress(2, 0, 0, 0, 0, 7));
  r4->AttachTo(lan_b_, Ipv4Address(10, 0, 2, 2), SubnetMask::FromPrefixLength(24),
               MacAddress(2, 0, 0, 0, 0, 8));

  RipDaemon d1(r1_, r1_, {});
  RipDaemon d2(r2_, r2_, {});
  RipDaemon d3(r3, r3, {});
  RipDaemon d4(r4, r4, {});
  d1.Start();
  d2.Start();
  d3.Start();
  d4.Start();
  sim_.RunFor(Duration::Minutes(3));
  // Primary (metric 2 via r2) wins while it is alive.
  ASSERT_EQ(r1_->routing_table().Lookup(Ipv4Address(10, 0, 2, 5))->gateway, r2_bb_->ip);

  r2_->SetUp(false);
  sim_.RunFor(Duration::Minutes(8));
  auto route = r1_->routing_table().Lookup(Ipv4Address(10, 0, 2, 5));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->gateway, r3_bb->ip);  // The fallback, via the serial detour.
  EXPECT_EQ(route->metric, 3u);          // lan_b connected=1, +r4→r3, +r3→r1.
}

TEST_F(RipDaemonTest, PromiscuousHostEchoesEverything) {
  RipDaemon d1(r1_, r1_, {});
  d1.Start();
  Host* chatty = sim_.CreateHost("chatty");
  chatty->AttachTo(lan_a_, Ipv4Address(10, 0, 1, 200), SubnetMask::FromPrefixLength(24),
                   MacAddress(2, 0, 0, 0, 0, 7));
  RipDaemonConfig bad;
  bad.promiscuous_rebroadcast = true;
  RipDaemon chatty_daemon(chatty, nullptr, bad);
  chatty_daemon.Start();

  RipSniffer sniffer(lan_a_);
  sim_.RunFor(Duration::Minutes(3));

  bool chatty_advertised = false;
  for (const auto& [src, packet] : sniffer.packets) {
    if (src == Ipv4Address(10, 0, 1, 200)) {
      chatty_advertised = true;
      for (const auto& entry : packet.entries) {
        // Everything echoed with bumped metric; no metric-1 routes.
        EXPECT_GE(entry.metric, 2u);
      }
    }
  }
  EXPECT_TRUE(chatty_advertised);
}

TEST_F(RipDaemonTest, AdvertisementFollowsTableChanges) {
  // The daemon itself never expires anything here: the test makes each
  // table change directly and checks the advertisement that follows it.
  RipDaemonConfig config;
  config.route_max_age = Duration::Hours(1);
  RipDaemon d1(r1_, r1_, config);
  d1.Start();
  RipSniffer sniffer(lan_a_);
  RoutingTable& table = r1_->routing_table();
  const Ipv4Address gw2(10, 0, 0, 2);
  const Ipv4Address gw3(10, 0, 0, 3);

  using Routes = std::vector<std::pair<Ipv4Address, uint32_t>>;
  // What lan_a should hear: the live table minus split horizon, in order.
  auto live = [&]() {
    Routes routes;
    for (const RouteEntry& route : table.entries()) {
      if (route.metric < kRipMetricInfinity && route.out_iface != r1_a_) {
        routes.emplace_back(route.destination.network(), route.metric);
      }
    }
    return routes;
  };
  // Runs one advertisement period and returns the one advertisement heard.
  auto next_heard = [&]() {
    sniffer.packets.clear();
    sim_.RunFor(Duration::Seconds(30));
    Routes routes;
    EXPECT_EQ(sniffer.packets.size(), 1u);
    if (!sniffer.packets.empty()) {
      for (const RipEntry& entry : sniffer.packets.back().second.entries) {
        routes.emplace_back(entry.address, entry.metric);
      }
    }
    return routes;
  };

  table.Learn(Net("10.0.6.0/24"), gw2, r1_bb_, 3, sim_.Now());
  sim_.RunFor(Duration::Seconds(40));
  table.Learn(Net("10.0.5.0/24"), gw2, r1_bb_, 2, sim_.Now());
  EXPECT_EQ(next_heard(), (Routes{{Ipv4Address(10, 0, 0, 0), 1},
                                  {Ipv4Address(10, 0, 6, 0), 3},
                                  {Ipv4Address(10, 0, 5, 0), 2}}));
  EXPECT_EQ(next_heard(), live()) << "unchanged table";

  table.Learn(Net("10.0.5.0/24"), gw2, r1_bb_, 4, sim_.Now());
  EXPECT_EQ(next_heard(), live()) << "same-gateway metric change";

  // 10.0.6.0 was learned 130 s ago; 10.0.5.0 was refreshed 30 s ago.
  ASSERT_EQ(table.ExpireStale(sim_.Now(), Duration::Seconds(60)), 1);
  EXPECT_EQ(next_heard(), live()) << "expiry";

  table.Learn(Net("10.0.7.0/24"), gw3, r1_bb_, 5, sim_.Now());
  EXPECT_EQ(next_heard(), live()) << "new route";
  EXPECT_EQ(live(), (Routes{{Ipv4Address(10, 0, 0, 0), 1},
                            {Ipv4Address(10, 0, 5, 0), 4},
                            {Ipv4Address(10, 0, 7, 0), 5}}));
}

TEST_F(RipDaemonTest, StopSilencesDaemon) {
  RipDaemon d1(r1_, r1_, {});
  d1.Start();
  sim_.RunFor(Duration::Minutes(1));
  d1.Stop();
  RipSniffer sniffer(lan_a_);
  sim_.RunFor(Duration::Minutes(2));
  EXPECT_TRUE(sniffer.packets.empty());
}

}  // namespace
}  // namespace fremont
