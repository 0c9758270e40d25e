// Tests for Journal replication between Fremont sites.

#include "src/journal/replicate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/explorer/etherhostprobe.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/traceroute.h"
#include "src/manager/correlate.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

namespace fremont {
namespace {

SimTime At(int64_t hours) { return SimTime::Epoch() + Duration::Hours(hours); }

TEST(ReplicateTest, FirstPullCopiesEverything) {
  SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);

  InterfaceObservation obs;
  obs.ip = Ipv4Address(128, 138, 238, 10);
  obs.mac = MacAddress(8, 0, 0x20, 0, 0, 1);
  obs.dns_name = "boulder.cs.colorado.edu";
  client_a.StoreInterface(obs, DiscoverySource::kArpWatch);
  GatewayObservation gw;
  gw.name = "cs-gw.colorado.edu";
  gw.interface_ips = {Ipv4Address(128, 138, 238, 1)};
  gw.connected_subnets = {*Subnet::Parse("128.138.238.0/24")};
  client_a.StoreGateway(gw, DiscoverySource::kTraceroute);

  ReplicationPeer peer(&client_a);
  ReplicationStats stats = peer.Pull(client_b);
  EXPECT_EQ(stats.interfaces_pulled, 2);  // Host + gateway member.
  EXPECT_EQ(stats.gateways_pulled, 1);
  EXPECT_EQ(stats.subnets_pulled, 1);
  EXPECT_GT(stats.new_or_changed, 0);

  auto pulled = client_b.GetInterfaces(Selector::ByName("boulder.cs.colorado.edu"));
  ASSERT_EQ(pulled.size(), 1u);
  EXPECT_EQ(*pulled[0].mac, MacAddress(8, 0, 0x20, 0, 0, 1));
  ASSERT_EQ(client_b.GetGateways().size(), 1u);
  EXPECT_EQ(client_b.GetGateways()[0].name, "cs-gw.colorado.edu");
}

TEST(ReplicateTest, IncrementalPullOnlyMovesChanges) {
  SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);

  for (uint8_t i = 1; i <= 20; ++i) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(10, 0, 0, i);
    obs.mac = MacAddress(2, 0, 0, 0, 0, i);
    client_a.StoreInterface(obs, DiscoverySource::kArpWatch);
  }
  ReplicationPeer peer(&client_a);
  EXPECT_EQ(peer.Pull(client_b).interfaces_pulled, 20);

  // One new interface and one change on the remote; re-verifications of old
  // records must NOT travel.
  now = At(5);
  InterfaceObservation fresh;
  fresh.ip = Ipv4Address(10, 0, 0, 99);
  fresh.mac = MacAddress(2, 0, 0, 0, 0, 99);
  client_a.StoreInterface(fresh, DiscoverySource::kArpWatch);
  InterfaceObservation renamed;
  renamed.ip = Ipv4Address(10, 0, 0, 1);
  renamed.mac = MacAddress(2, 0, 0, 0, 0, 1);
  renamed.dns_name = "renamed.colorado.edu";
  client_a.StoreInterface(renamed, DiscoverySource::kDns);
  // A pure re-verification (no change):
  InterfaceObservation same;
  same.ip = Ipv4Address(10, 0, 0, 2);
  same.mac = MacAddress(2, 0, 0, 0, 0, 2);
  client_a.StoreInterface(same, DiscoverySource::kSeqPing);

  ReplicationStats second = peer.Pull(client_b);
  EXPECT_EQ(second.interfaces_pulled, 2);  // The new one + the renamed one.
  EXPECT_EQ(client_b.GetStats().interface_count, 21u);
  EXPECT_EQ(client_b.GetInterfaces(Selector::ByName("renamed.colorado.edu")).size(), 1u);
}

TEST(ReplicateTest, PullIsIdempotent) {
  SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);
  InterfaceObservation obs;
  obs.ip = Ipv4Address(10, 0, 0, 1);
  obs.mac = MacAddress(2, 0, 0, 0, 0, 1);
  client_a.StoreInterface(obs, DiscoverySource::kArpWatch);

  ReplicationPeer peer(&client_a);
  peer.Pull(client_b);
  ReplicationStats again = peer.Pull(client_b);
  EXPECT_EQ(again.interfaces_pulled, 0);
  EXPECT_EQ(again.new_or_changed, 0);
  EXPECT_EQ(client_b.GetStats().interface_count, 1u);
}

// A store made at the very instant of a pull, just after it, must not be
// lost: the change feed orders by generation, not by sim time.
TEST(ReplicateTest, SameInstantStoreAfterPullArrivesOnNextPull) {
  const SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);
  InterfaceObservation first;
  first.ip = Ipv4Address(10, 0, 0, 1);
  first.mac = MacAddress(2, 0, 0, 0, 0, 1);
  client_a.StoreInterface(first, DiscoverySource::kArpWatch);

  ReplicationPeer peer(&client_a);
  peer.Pull(client_b);
  InterfaceObservation second;
  second.ip = Ipv4Address(10, 0, 0, 2);
  second.mac = MacAddress(2, 0, 0, 0, 0, 2);
  client_a.StoreInterface(second, DiscoverySource::kArpWatch);
  peer.Pull(client_b);

  EXPECT_EQ(client_a.GetStats().interface_count, 2u);
  EXPECT_EQ(client_b.GetStats().interface_count, 2u);
}

TEST(ReplicateTest, DeleteOnPrimaryDeletesOnReplica) {
  SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);
  std::vector<RecordId> ids;
  for (uint8_t i = 1; i <= 2; ++i) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(10, 0, 0, i);
    obs.mac = MacAddress(2, 0, 0, 0, 0, i);
    ids.push_back(client_a.StoreInterface(obs, DiscoverySource::kArpWatch).id);
  }
  ReplicationPeer peer(&client_a);
  peer.Pull(client_b);
  ASSERT_EQ(client_b.GetStats().interface_count, 2u);

  now = At(2);
  ASSERT_TRUE(client_a.DeleteInterface(ids[0]));
  peer.Pull(client_b);
  EXPECT_EQ(client_b.GetStats().interface_count, 1u);
  EXPECT_TRUE(client_b.GetInterfaces(Selector::ByIp(Ipv4Address(10, 0, 0, 1))).empty());
  EXPECT_EQ(client_b.GetInterfaces(Selector::ByIp(Ipv4Address(10, 0, 0, 2))).size(), 1u);
}

// An idle pull costs one delta round trip per record kind, however many
// gateways the peer holds: members resolve through the mirrored interfaces,
// not one point lookup each.
TEST(ReplicateTest, IdlePullSendsOneDeltaRequestPerKind) {
  const SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);
  for (uint8_t g = 0; g < 50; ++g) {
    GatewayObservation gw;
    gw.name = "gw" + std::to_string(g) + ".colorado.edu";
    gw.interface_ips = {Ipv4Address(10, 1, g, 1), Ipv4Address(10, 2, g, 1)};
    gw.connected_subnets = {Subnet(Ipv4Address(10, 1, g, 0), SubnetMask::FromPrefixLength(24)),
                            Subnet(Ipv4Address(10, 2, g, 0), SubnetMask::FromPrefixLength(24))};
    client_a.StoreGateway(gw, DiscoverySource::kTraceroute);
  }

  int requests = 0;
  JournalClient counted([&](const ByteBuffer& request) {
    ++requests;
    return site_a.HandleRequest(request);
  });
  ReplicationPeer peer(&counted);
  peer.Pull(client_b);
  ASSERT_EQ(client_b.GetGateways().size(), 50u);
  EXPECT_EQ(client_b.GetGateways()[0].interface_ids.size(), 2u);

  requests = 0;
  const ReplicationStats idle = peer.Pull(client_b);
  EXPECT_EQ(requests, 3);
  EXPECT_EQ(idle.interfaces_pulled + idle.gateways_pulled + idle.subnets_pulled, 0);
}

// A pull whose connection drops (nothing decodes) replays nothing and
// deletes nothing here; the next pull brings what the peer changed.
TEST(ReplicateTest, FailedPullKeepsReplicaAndNextPullConverges) {
  SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);
  auto store = [&](uint8_t host) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(10, 0, 0, host);
    obs.mac = MacAddress(2, 0, 0, 0, 0, host);
    return client_a.StoreInterface(obs, DiscoverySource::kArpWatch).id;
  };
  const RecordId first = store(1);
  store(2);
  store(3);
  bool up = true;
  JournalClient remote([&](const ByteBuffer& request) {
    return up ? site_a.HandleRequest(request) : ByteBuffer{};
  });
  ReplicationPeer peer(&remote);
  peer.Pull(client_b);
  ASSERT_EQ(client_b.GetStats().interface_count, 3u);

  now = At(2);
  ASSERT_TRUE(client_a.DeleteInterface(first));
  store(4);
  up = false;
  const ReplicationStats failed = peer.Pull(client_b);
  EXPECT_EQ(failed.interfaces_pulled + failed.gateways_pulled + failed.subnets_pulled, 0);
  EXPECT_EQ(client_b.GetStats().interface_count, 3u);
  EXPECT_EQ(client_b.GetInterfaces(Selector::ByIp(Ipv4Address(10, 0, 0, 2))).size(), 1u);

  up = true;
  peer.Pull(client_b);
  EXPECT_EQ(client_b.GetStats().interface_count, 3u);
  EXPECT_TRUE(client_b.GetInterfaces(Selector::ByIp(Ipv4Address(10, 0, 0, 1))).empty());
  EXPECT_EQ(client_b.GetInterfaces(Selector::ByIp(Ipv4Address(10, 0, 0, 4))).size(), 1u);
}

// Two sites that pull each other. A deletes an interface and re-learns it
// before B's pull: B keeps its copy (A still holds the address), and after
// one round trip no pull deletes or re-creates anything — record ids stay
// put on both sites.
TEST(ReplicateTest, ReLearnedInterfaceDoesNotBounceBetweenSites) {
  SimTime now = At(1);
  JournalServer site_a([&now]() { return now; });
  JournalClient client_a(&site_a);
  JournalServer site_b([&now]() { return now; });
  JournalClient client_b(&site_b);
  InterfaceObservation obs;
  obs.ip = Ipv4Address(10, 0, 0, 7);
  obs.mac = MacAddress(2, 0, 0, 0, 0, 7);
  obs.dns_name = "flatiron.colorado.edu";
  const RecordId learned = client_a.StoreInterface(obs, DiscoverySource::kArpWatch).id;
  ReplicationPeer b_pulls_a(&client_a);
  ReplicationPeer a_pulls_b(&client_b);
  b_pulls_a.Pull(client_b);
  a_pulls_b.Pull(client_a);

  now = At(2);
  ASSERT_TRUE(client_a.DeleteInterface(learned));
  client_a.StoreInterface(obs, DiscoverySource::kArpWatch);
  auto id_at = [&obs](JournalClient& client) {
    const auto recs = client.GetInterfaces(Selector::ByIp(obs.ip));
    return recs.size() == 1 ? recs[0].id : kInvalidRecordId;
  };
  b_pulls_a.Pull(client_b);
  a_pulls_b.Pull(client_a);
  const RecordId at_a = id_at(client_a);
  const RecordId at_b = id_at(client_b);
  ASSERT_NE(at_a, kInvalidRecordId);
  ASSERT_NE(at_b, kInvalidRecordId);

  for (int round = 0; round < 3; ++round) {
    now += Duration::Minutes(10);
    b_pulls_a.Pull(client_b);
    a_pulls_b.Pull(client_a);
    EXPECT_EQ(id_at(client_a), at_a) << "round " << round;
    EXPECT_EQ(id_at(client_b), at_b) << "round " << round;
  }
}

TEST(ReplicateTest, CrossSiteCorrelationFindsGateways) {
  // Two Fremont sites on two subnets joined by a Sun workstation gateway
  // (SunOS puts the hostid-derived MAC on every interface). Each site's ARP
  // module sees that MAC on its own side only; after replication, the
  // correlation pass at either site identifies the gateway — the paper's
  // flagship example of the Journal being "more than just the sum of its
  // parts", here across sites.
  Simulator sim(321);
  const Subnet subnet_a = *Subnet::Parse("10.7.1.0/24");
  const Subnet subnet_b = *Subnet::Parse("10.7.2.0/24");
  Segment* seg_a = sim.CreateSegment("a", subnet_a);
  Segment* seg_b = sim.CreateSegment("b", subnet_b);

  const MacAddress sun_mac(0x08, 0x00, 0x20, 0x11, 0x22, 0x33);
  Router* sun = sim.CreateRouter("sun-gw", {});
  sun->AttachTo(seg_a, subnet_a.HostAt(1), subnet_a.mask(), sun_mac);
  sun->AttachTo(seg_b, subnet_b.HostAt(1), subnet_b.mask(), sun_mac);

  Host* host_a = sim.CreateHost("site-a");
  host_a->AttachTo(seg_a, subnet_a.HostAt(10), subnet_a.mask(), MacAddress(2, 0, 0, 7, 0, 1));
  host_a->SetDefaultGateway(subnet_a.HostAt(1));
  Host* host_b = sim.CreateHost("site-b");
  host_b->AttachTo(seg_b, subnet_b.HostAt(10), subnet_b.mask(), MacAddress(2, 0, 0, 7, 0, 2));
  host_b->SetDefaultGateway(subnet_b.HostAt(1));

  JournalServer site_a([&sim]() { return sim.Now(); });
  JournalClient client_a(&site_a);
  JournalServer site_b([&sim]() { return sim.Now(); });
  JournalClient client_b(&site_b);

  EtherHostProbe(host_a, &client_a).Run();
  EtherHostProbe(host_b, &client_b).Run();

  // Before replication: neither site can correlate (one subnet each).
  EXPECT_EQ(Correlate(client_a).gateways_inferred_from_mac, 0);

  // Site A pulls site B, then correlates: the shared MAC now spans subnets.
  ReplicationPeer peer(&client_b);
  peer.Pull(client_a);
  CorrelationReport correlated = Correlate(client_a);
  EXPECT_EQ(correlated.gateways_inferred_from_mac, 1);
  const GatewayRecord* gw = site_a.journal().FindGatewayByInterfaceIp(subnet_a.HostAt(1));
  ASSERT_NE(gw, nullptr);
  EXPECT_EQ(gw->interface_ids.size(), 2u);
  // Site B, pulling the other way, reaches the same conclusion.
  ReplicationPeer reverse(&client_a);
  reverse.Pull(client_b);
  EXPECT_NE(site_b.journal().FindGatewayByInterfaceIp(subnet_b.HostAt(1)), nullptr);
}

}  // namespace
}  // namespace fremont
