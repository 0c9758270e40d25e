// Assorted coverage: the intro's "longer memory than the ARP cache"
// demonstration, simulator lookups, host API guards, and RNG sanity.

#include <gtest/gtest.h>

#include "src/explorer/arpwatch.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace fremont {
namespace {

TEST(JournalMemoryVsArpCacheTest, JournalRemembersWhatTheCacheForgets) {
  // The introduction's pitch: "Detecting this problem is relatively easy if
  // you have a tool that remembers the IP and Ethernet associations longer
  // than the usual timeout of the ARP cache." Two hosts share an address;
  // they talk at different times, hours apart — the ARP cache only ever
  // knows one binding at a time, while the Journal accumulates both.
  Simulator sim(12);
  const Subnet subnet = *Subnet::Parse("10.6.0.0/24");
  Segment* lan = sim.CreateSegment("lan", subnet);
  Host* vantage = sim.CreateHost("vantage");
  vantage->AttachTo(lan, subnet.HostAt(250), subnet.mask(), MacAddress(2, 0, 0, 6, 0, 250));
  Host* peer = sim.CreateHost("peer");
  peer->AttachTo(lan, subnet.HostAt(9), subnet.mask(), MacAddress(2, 0, 0, 6, 0, 9));
  peer->BindUdp(5000, [](const Ipv4Packet&, const UdpDatagram&) {});

  Host* first = sim.CreateHost("first");
  first->AttachTo(lan, subnet.HostAt(5), subnet.mask(), MacAddress(2, 0, 0, 6, 0, 1));
  Host* second = sim.CreateHost("second");
  second->AttachTo(lan, subnet.HostAt(5), subnet.mask(), MacAddress(2, 0, 0, 6, 0, 2));
  second->SetUp(false);

  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient client(&server);
  ArpWatch watch(vantage, &client, {.watch = Duration::Hours(5)});  // Outlasts the window.
  watch.Start();

  // Morning: the first claimant talks.
  first->SendUdp(subnet.HostAt(9), 1, 5000, {});
  sim.RunFor(Duration::Hours(2));
  // It goes quiet; hours later (far beyond any ARP timeout) the second
  // claimant boots and talks.
  first->SetUp(false);
  second->SetUp(true);
  sim.RunFor(Duration::Hours(2));
  second->SendUdp(subnet.HostAt(9), 1, 5000, {});
  sim.RunFor(Duration::Minutes(5));
  watch.Cancel();

  // The peer's ARP cache: at most one binding for .5 (and likely expired).
  EXPECT_LE(peer->arp_cache().Snapshot(sim.Now()).size(), 2u);
  auto cached = peer->arp_cache().Lookup(subnet.HostAt(5), sim.Now());
  if (cached.has_value()) {
    EXPECT_EQ(*cached, second->primary_interface()->mac);  // Only the latest.
  }

  // The Journal: both (IP, MAC) records, hours apart — the conflict is
  // visible to anyone who asks.
  auto records = client.GetInterfaces(Selector::ByIp(subnet.HostAt(5)));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].mac, records[1].mac);
}

TEST(SimulatorLookupTest, FindByName) {
  Simulator sim(1);
  Segment* lan = sim.CreateSegment("office", *Subnet::Parse("10.0.0.0/24"));
  Host* host = sim.CreateHost("boulder");
  Router* router = sim.CreateRouter("gw", {});
  EXPECT_EQ(sim.FindHost("boulder"), host);
  EXPECT_EQ(sim.FindHost("gw"), router);  // Routers are hosts too.
  EXPECT_EQ(sim.FindHost("nobody"), nullptr);
  EXPECT_EQ(sim.FindSegment("office"), lan);
  EXPECT_EQ(sim.FindSegment("nowhere"), nullptr);
  EXPECT_EQ(sim.routers().size(), 1u);
  EXPECT_EQ(sim.hosts().size(), 2u);
}

TEST(HostGuardTest, DetachedHostSendsNothing) {
  Simulator sim(2);
  Host* loner = sim.CreateHost("loner");  // No interfaces at all.
  EXPECT_FALSE(loner->SendUdp(Ipv4Address(10, 0, 0, 1), 1, 2, {}));
  EXPECT_FALSE(loner->SendIcmp(Ipv4Address(10, 0, 0, 1), IcmpMessage::EchoRequest(1, 1)));
  EXPECT_EQ(loner->primary_interface(), nullptr);
  EXPECT_EQ(loner->packets_sent(), 0u);
}

TEST(HostGuardTest, DoubleBindRejected) {
  Simulator sim(3);
  Segment* lan = sim.CreateSegment("lan", *Subnet::Parse("10.0.0.0/24"));
  Host* host = sim.CreateHost("h");
  host->AttachTo(lan, Ipv4Address(10, 0, 0, 1), SubnetMask::FromPrefixLength(24),
                 MacAddress(2, 0, 0, 0, 0, 1));
  EXPECT_TRUE(host->BindUdp(7777, [](const Ipv4Packet&, const UdpDatagram&) {}));
  EXPECT_FALSE(host->BindUdp(7777, [](const Ipv4Packet&, const UdpDatagram&) {}));
  host->UnbindUdp(7777);
  EXPECT_TRUE(host->BindUdp(7777, [](const Ipv4Packet&, const UdpDatagram&) {}));
}

TEST(RngSanityTest, DistributionsBehave) {
  Rng rng(1234);
  // Uniform stays in range and hits both endpoints eventually.
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Uniform(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);

  // Bernoulli(p) frequency ≈ p.
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.Bernoulli(0.3);
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);

  // Exponential mean ≈ parameter.
  double total = 0;
  for (int i = 0; i < 10000; ++i) {
    total += rng.Exponential(5.0);
  }
  EXPECT_NEAR(total / 10000.0, 5.0, 0.3);

  // Same seed → same stream; forked seeds differ.
  Rng a(77), b(77);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
  Rng c(78);
  bool any_difference = false;
  Rng a2(77);
  for (int i = 0; i < 100; ++i) {
    any_difference |= a2.Uniform(0, 1000000) != c.Uniform(0, 1000000);
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace fremont
