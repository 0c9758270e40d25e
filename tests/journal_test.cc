// Tests for the Journal store: merge semantics, cross-correlation, indexes,
// timestamps, modification ordering, and persistence.

#include "src/journal/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

namespace fremont {
namespace {

const Ipv4Address kIp1(128, 138, 238, 10);
const Ipv4Address kIp2(128, 138, 240, 10);
const MacAddress kMacA(0x08, 0x00, 0x20, 0, 0, 1);
const MacAddress kMacB(0x08, 0x00, 0x2b, 0, 0, 2);

SimTime At(int64_t seconds) { return SimTime::Epoch() + Duration::Seconds(seconds); }

InterfaceObservation Obs(Ipv4Address ip, std::optional<MacAddress> mac = std::nullopt) {
  InterfaceObservation obs;
  obs.ip = ip;
  obs.mac = mac;
  return obs;
}

TEST(JournalInterfaceTest, CreateAndVerify) {
  Journal journal;
  auto r1 = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(10));
  EXPECT_TRUE(r1.created);
  EXPECT_TRUE(r1.changed);

  // Same observation later: verification, not change.
  auto r2 = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(20));
  EXPECT_FALSE(r2.created);
  EXPECT_FALSE(r2.changed);
  EXPECT_EQ(r1.id, r2.id);

  const InterfaceRecord* rec = journal.GetInterface(r1.id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->ts.first_discovered, At(10));
  EXPECT_EQ(rec->ts.last_changed, At(10));
  EXPECT_EQ(rec->ts.last_verified, At(20));
}

TEST(JournalInterfaceTest, WireVerificationIgnoresDns) {
  Journal journal;
  // First sighting via DNS only: never wire-verified.
  InterfaceObservation dns_obs = Obs(kIp1);
  dns_obs.dns_name = "ghost.cs.colorado.edu";
  auto r = journal.StoreInterface(dns_obs, DiscoverySource::kDns, At(10));
  EXPECT_EQ(journal.GetInterface(r.id)->ts.last_wire_verified, SimTime::Epoch());
  EXPECT_EQ(journal.GetInterface(r.id)->ts.last_verified, At(10));

  // An ARP sighting stamps the wire timestamp...
  journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(20));
  EXPECT_EQ(journal.GetInterface(r.id)->ts.last_wire_verified, At(20));

  // ...and a later DNS re-verification advances last_verified but NOT the
  // wire timestamp (the paper's "ignoring time of last DNS verification").
  journal.StoreInterface(dns_obs, DiscoverySource::kDns, At(30));
  EXPECT_EQ(journal.GetInterface(r.id)->ts.last_verified, At(30));
  EXPECT_EQ(journal.GetInterface(r.id)->ts.last_wire_verified, At(20));
}

TEST(JournalInterfaceTest, SourceBitsAccumulate) {
  Journal journal;
  auto r = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(1));
  journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kEtherHostProbe, At(2));
  const InterfaceRecord* rec = journal.GetInterface(r.id);
  EXPECT_EQ(rec->sources,
            SourceBit(DiscoverySource::kArpWatch) | SourceBit(DiscoverySource::kEtherHostProbe));
  // Corroboration by a new module is not a "change".
  EXPECT_EQ(rec->ts.last_changed, At(1));
}

TEST(JournalInterfaceTest, MaclessRecordAdoptsMac) {
  Journal journal;
  auto ping = journal.StoreInterface(Obs(kIp1), DiscoverySource::kSeqPing, At(1));
  auto arp = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(2));
  EXPECT_EQ(ping.id, arp.id);  // One interface, enriched.
  EXPECT_TRUE(arp.changed);
  const InterfaceRecord* rec = journal.GetInterface(ping.id);
  EXPECT_EQ(*rec->mac, kMacA);
  EXPECT_EQ(rec->ts.last_changed, At(2));
  // Findable through the MAC index now.
  EXPECT_EQ(journal.FindInterfacesByMac(kMacA).size(), 1u);
}

TEST(JournalInterfaceTest, SecondMacOpensSecondRecord) {
  // A different MAC claiming the same IP is evidence (duplicate address or
  // hardware change), preserved as a separate record.
  Journal journal;
  auto first = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(1));
  auto second = journal.StoreInterface(Obs(kIp1, kMacB), DiscoverySource::kArpWatch, At(2));
  EXPECT_NE(first.id, second.id);
  EXPECT_TRUE(second.created);
  EXPECT_EQ(journal.FindInterfacesByIp(kIp1).size(), 2u);
}

TEST(JournalInterfaceTest, MaclessObservationVerifiesMostRecent) {
  Journal journal;
  journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(1));
  auto second = journal.StoreInterface(Obs(kIp1, kMacB), DiscoverySource::kArpWatch, At(50));
  // A ping (no MAC) verifies the most recently verified claimant.
  auto ping = journal.StoreInterface(Obs(kIp1), DiscoverySource::kSeqPing, At(60));
  EXPECT_EQ(ping.id, second.id);
}

TEST(JournalInterfaceTest, NameAndMaskChangesBumpLastChanged) {
  Journal journal;
  auto r = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(1));

  InterfaceObservation with_name = Obs(kIp1, kMacA);
  with_name.dns_name = "boulder.cs.colorado.edu";
  journal.StoreInterface(with_name, DiscoverySource::kDns, At(5));
  EXPECT_EQ(journal.GetInterface(r.id)->ts.last_changed, At(5));
  EXPECT_EQ(journal.FindInterfacesByName("boulder.cs.colorado.edu").size(), 1u);

  // Renaming re-indexes.
  with_name.dns_name = "renamed.cs.colorado.edu";
  journal.StoreInterface(with_name, DiscoverySource::kDns, At(9));
  EXPECT_TRUE(journal.FindInterfacesByName("boulder.cs.colorado.edu").empty());
  EXPECT_EQ(journal.FindInterfacesByName("renamed.cs.colorado.edu").size(), 1u);

  InterfaceObservation with_mask = Obs(kIp1, kMacA);
  with_mask.mask = SubnetMask::FromPrefixLength(24);
  journal.StoreInterface(with_mask, DiscoverySource::kSubnetMask, At(12));
  EXPECT_EQ(journal.GetInterface(r.id)->ts.last_changed, At(12));
  EXPECT_TRUE(journal.CheckIndexes());
}

TEST(JournalInterfaceTest, RangeQueryScansSubnet) {
  Journal journal;
  for (int i = 1; i <= 20; ++i) {
    journal.StoreInterface(Obs(Ipv4Address(128, 138, 238, static_cast<uint8_t>(i))),
                           DiscoverySource::kSeqPing, At(i));
  }
  journal.StoreInterface(Obs(Ipv4Address(128, 138, 240, 5)), DiscoverySource::kSeqPing, At(99));
  auto subnet = *Subnet::Parse("128.138.238.0/24");
  auto in_subnet = journal.FindInterfacesInRange(subnet.network(), subnet.BroadcastAddress());
  EXPECT_EQ(in_subnet.size(), 20u);
  // Sorted ascending by the AVL order.
  for (size_t i = 1; i < in_subnet.size(); ++i) {
    EXPECT_LT(in_subnet[i - 1].ip, in_subnet[i].ip);
  }
}

TEST(JournalInterfaceTest, ModificationOrdering) {
  Journal journal;
  auto a = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(1));
  auto b = journal.StoreInterface(Obs(kIp2, kMacB), DiscoverySource::kArpWatch, At(2));
  // Change A after B: A moves to the tail.
  InterfaceObservation rename = Obs(kIp1, kMacA);
  rename.dns_name = "x.colorado.edu";
  journal.StoreInterface(rename, DiscoverySource::kDns, At(3));
  auto all = journal.AllInterfaces();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, b.id);
  EXPECT_EQ(all[1].id, a.id);
}

// FindInterfacesModifiedSince answers from the tail of the modification
// order, so matches come back least-recently-modified first — the same
// relative order AllInterfaces() would give them — and records older than
// `since` are never visited.
TEST(JournalInterfaceTest, ModifiedSinceWalksTailInModOrder) {
  Journal journal;
  std::vector<RecordId> ids;
  for (int i = 0; i < 5; ++i) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(128, 138, 238, static_cast<uint8_t>(10 + i));
    obs.mac = MacAddress::FromIndex(static_cast<uint64_t>(i));
    ids.push_back(journal.StoreInterface(obs, DiscoverySource::kArpWatch, At(10 * (i + 1))).id);
  }
  // Touch record 1 late: it moves behind record 4 in the mod-order.
  InterfaceObservation rename;
  rename.ip = Ipv4Address(128, 138, 238, 11);
  rename.mac = MacAddress::FromIndex(1);
  rename.dns_name = "renamed.colorado.edu";
  journal.StoreInterface(rename, DiscoverySource::kDns, At(60));

  auto recent = journal.FindInterfacesModifiedSince(At(30));
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent[0].id, ids[2]);  // changed at 30
  EXPECT_EQ(recent[1].id, ids[3]);  // changed at 40
  EXPECT_EQ(recent[2].id, ids[4]);  // changed at 50
  EXPECT_EQ(recent[3].id, ids[1]);  // renamed at 60, now newest

  // Boundary is inclusive; a later threshold excludes everything.
  EXPECT_EQ(journal.FindInterfacesModifiedSince(At(60)).size(), 1u);
  EXPECT_TRUE(journal.FindInterfacesModifiedSince(At(61)).empty());

  // Two records sharing one last_changed tie-break ascending by id, exactly
  // like AllInterfaces() — so delta consumers can merge by (last_changed, id).
  auto all = journal.AllInterfaces();
  auto since_epoch = journal.FindInterfacesModifiedSince(SimTime::Epoch());
  ASSERT_EQ(all.size(), since_epoch.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, since_epoch[i].id);
  }
}

TEST(JournalInterfaceTest, DeleteCleansIndexes) {
  Journal journal;
  auto r = journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(1));
  EXPECT_TRUE(journal.DeleteInterface(r.id));
  EXPECT_FALSE(journal.DeleteInterface(r.id));
  EXPECT_TRUE(journal.FindInterfacesByIp(kIp1).empty());
  EXPECT_TRUE(journal.FindInterfacesByMac(kMacA).empty());
  EXPECT_TRUE(journal.CheckIndexes());
  EXPECT_EQ(journal.Stats().interface_count, 0u);
}

TEST(JournalGatewayTest, CreatesInterfacesAndSubnetLinks) {
  Journal journal;
  GatewayObservation gw;
  gw.name = "cs-gw.colorado.edu";
  gw.interface_ips = {Ipv4Address(128, 138, 238, 1), Ipv4Address(128, 138, 0, 238)};
  gw.connected_subnets = {*Subnet::Parse("128.138.238.0/24"), *Subnet::Parse("128.138.0.0/24")};
  auto r = journal.StoreGateway(gw, DiscoverySource::kDns, At(1));
  EXPECT_TRUE(r.created);

  const GatewayRecord* rec = journal.GetGateway(r.id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->interface_ids.size(), 2u);
  EXPECT_EQ(rec->connected_subnets.size(), 2u);
  // Member interfaces exist and point back.
  for (RecordId iface_id : rec->interface_ids) {
    EXPECT_EQ(journal.GetInterface(iface_id)->gateway_id, r.id);
  }
  // Subnet records were created with the gateway attached.
  const SubnetRecord* subnet = journal.FindSubnet(*Subnet::Parse("128.138.238.0/24"));
  ASSERT_NE(subnet, nullptr);
  ASSERT_EQ(subnet->gateway_ids.size(), 1u);
  EXPECT_EQ(subnet->gateway_ids[0], r.id);
  // Reachable via any member interface.
  EXPECT_EQ(journal.FindGatewayByInterfaceIp(Ipv4Address(128, 138, 0, 238))->id, r.id);
}

TEST(JournalGatewayTest, ObservationsSharingAnInterfaceMerge) {
  Journal journal;
  // Traceroute sees interface A; DNS sees interfaces A and B under a name.
  GatewayObservation traceroute_obs;
  traceroute_obs.interface_ips = {Ipv4Address(128, 138, 238, 1)};
  auto first = journal.StoreGateway(traceroute_obs, DiscoverySource::kTraceroute, At(1));

  GatewayObservation dns_obs;
  dns_obs.name = "cs-gw.colorado.edu";
  dns_obs.interface_ips = {Ipv4Address(128, 138, 238, 1), Ipv4Address(128, 138, 0, 238)};
  auto second = journal.StoreGateway(dns_obs, DiscoverySource::kDns, At(2));

  EXPECT_EQ(first.id, second.id);  // Same gateway, enriched.
  const GatewayRecord* rec = journal.GetGateway(first.id);
  EXPECT_EQ(rec->interface_ids.size(), 2u);
  EXPECT_EQ(rec->name, "cs-gw.colorado.edu");
  EXPECT_EQ(journal.Stats().gateway_count, 1u);
}

TEST(JournalGatewayTest, DistinctGatewaysMergeWhenLinked) {
  Journal journal;
  GatewayObservation a;
  a.interface_ips = {Ipv4Address(10, 0, 1, 1)};
  auto ga = journal.StoreGateway(a, DiscoverySource::kTraceroute, At(1));
  GatewayObservation b;
  b.interface_ips = {Ipv4Address(10, 0, 2, 1)};
  b.connected_subnets = {*Subnet::Parse("10.0.2.0/24")};
  auto gb = journal.StoreGateway(b, DiscoverySource::kTraceroute, At(2));
  ASSERT_NE(ga.id, gb.id);

  // Correlation links both interfaces as one box.
  GatewayObservation both;
  both.interface_ips = {Ipv4Address(10, 0, 1, 1), Ipv4Address(10, 0, 2, 1)};
  auto merged = journal.StoreGateway(both, DiscoverySource::kManual, At(3));
  EXPECT_EQ(journal.Stats().gateway_count, 1u);
  const GatewayRecord* rec = journal.GetGateway(merged.id);
  EXPECT_EQ(rec->interface_ids.size(), 2u);
  // The survivor inherits the absorbed gateway's subnets, and the subnet
  // record points at the survivor.
  EXPECT_EQ(rec->connected_subnets.size(), 1u);
  const SubnetRecord* subnet = journal.FindSubnet(*Subnet::Parse("10.0.2.0/24"));
  ASSERT_EQ(subnet->gateway_ids.size(), 1u);
  EXPECT_EQ(subnet->gateway_ids[0], merged.id);
}

TEST(JournalSubnetTest, StatsRefineOverTime) {
  Journal journal;
  SubnetObservation rip_obs;
  rip_obs.subnet = *Subnet::Parse("128.138.238.0/24");
  auto first = journal.StoreSubnet(rip_obs, DiscoverySource::kRipWatch, At(1));
  EXPECT_TRUE(first.created);

  SubnetObservation dns_obs;
  dns_obs.subnet = rip_obs.subnet;
  dns_obs.host_count = 56;
  dns_obs.lowest_assigned = Ipv4Address(128, 138, 238, 1);
  dns_obs.highest_assigned = Ipv4Address(128, 138, 238, 201);
  auto second = journal.StoreSubnet(dns_obs, DiscoverySource::kDns, At(2));
  EXPECT_EQ(first.id, second.id);
  EXPECT_TRUE(second.changed);

  const SubnetRecord* rec = journal.GetSubnet(first.id);
  EXPECT_EQ(rec->host_count, 56);
  EXPECT_EQ(rec->lowest_assigned, Ipv4Address(128, 138, 238, 1));
  EXPECT_EQ(rec->highest_assigned, Ipv4Address(128, 138, 238, 201));
}

TEST(JournalSubnetTest, MoreSpecificMaskRefines) {
  Journal journal;
  SubnetObservation coarse;
  coarse.subnet = Subnet(Ipv4Address(128, 138, 238, 0), SubnetMask::FromPrefixLength(24));
  journal.StoreSubnet(coarse, DiscoverySource::kTraceroute, At(1));
  SubnetObservation fine;
  fine.subnet = Subnet(Ipv4Address(128, 138, 238, 0), SubnetMask::FromPrefixLength(26));
  auto r = journal.StoreSubnet(fine, DiscoverySource::kSubnetMask, At(2));
  EXPECT_EQ(journal.GetSubnet(r.id)->subnet.mask().PrefixLength(), 26);
  // A later coarser claim does not undo it.
  journal.StoreSubnet(coarse, DiscoverySource::kTraceroute, At(3));
  EXPECT_EQ(journal.GetSubnet(r.id)->subnet.mask().PrefixLength(), 26);
}

TEST(JournalPersistenceTest, SaveLoadRoundTrip) {
  Journal journal;
  InterfaceObservation obs = Obs(kIp1, kMacA);
  obs.dns_name = "boulder.cs.colorado.edu";
  obs.mask = SubnetMask::FromPrefixLength(24);
  obs.rip_source = true;
  journal.StoreInterface(obs, DiscoverySource::kArpWatch, At(5));
  GatewayObservation gw;
  gw.name = "cs-gw.colorado.edu";
  gw.interface_ips = {Ipv4Address(128, 138, 238, 1)};
  gw.connected_subnets = {*Subnet::Parse("128.138.238.0/24")};
  journal.StoreGateway(gw, DiscoverySource::kDns, At(6));

  const std::string path = ::testing::TempDir() + "/journal_roundtrip.bin";
  ASSERT_TRUE(journal.SaveToFile(path));

  Journal loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));
  EXPECT_TRUE(loaded.CheckIndexes());
  EXPECT_EQ(loaded.Stats().interface_count, journal.Stats().interface_count);
  EXPECT_EQ(loaded.Stats().gateway_count, 1u);
  EXPECT_EQ(loaded.Stats().subnet_count, 1u);

  auto recs = loaded.FindInterfacesByName("boulder.cs.colorado.edu");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].ip, kIp1);
  EXPECT_EQ(*recs[0].mac, kMacA);
  EXPECT_TRUE(recs[0].rip_source);
  EXPECT_EQ(recs[0].ts.last_verified, At(5));

  // New stores in the loaded journal get fresh (non-colliding) ids.
  auto fresh = loaded.StoreInterface(Obs(kIp2, kMacB), DiscoverySource::kArpWatch, At(9));
  EXPECT_TRUE(fresh.created);
  EXPECT_TRUE(loaded.CheckIndexes());
  std::remove(path.c_str());
}

TEST(JournalPersistenceTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/journal_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a journal", f);
    std::fclose(f);
  }
  Journal journal;
  journal.StoreInterface(Obs(kIp1), DiscoverySource::kSeqPing, At(1));
  EXPECT_FALSE(journal.LoadFromFile(path));
  // A failed load leaves the journal untouched.
  EXPECT_EQ(journal.Stats().interface_count, 1u);
  std::remove(path.c_str());
  EXPECT_FALSE(journal.LoadFromFile("/nonexistent/path/journal.bin"));
}

// The records and next ids of a snapshot, written the way EncodeAll frames
// them, so a test can corrupt one field and load the result.
struct SnapshotParts {
  std::vector<InterfaceRecord> interfaces;
  std::vector<GatewayRecord> gateways;
  std::vector<SubnetRecord> subnets;
  RecordId next_interface = 0;
  RecordId next_gateway = 0;
  RecordId next_subnet = 0;
  ByteBuffer trailing;  // Written after the next ids.
};

template <typename Record>
RecordId OnePastLargestId(const std::vector<Record>& records) {
  RecordId largest = 0;
  for (const Record& rec : records) {
    largest = std::max(largest, rec.id);
  }
  return largest + 1;
}

// Two interfaces, two gateways and two subnets, plus whatever records the
// gateway stores add.
Journal TwoOfEach() {
  Journal journal;
  journal.StoreInterface(Obs(kIp1, kMacA), DiscoverySource::kArpWatch, At(1));
  journal.StoreInterface(Obs(kIp2, kMacB), DiscoverySource::kArpWatch, At(2));
  for (uint8_t i = 0; i < 2; ++i) {
    GatewayObservation gw;
    gw.interface_ips = {Ipv4Address(10, 0, i, 1)};
    journal.StoreGateway(gw, DiscoverySource::kTraceroute, At(3 + i));
    SubnetObservation subnet;
    subnet.subnet = Subnet(Ipv4Address(10, 1, i, 0), SubnetMask::FromPrefixLength(24));
    journal.StoreSubnet(subnet, DiscoverySource::kSubnetMask, At(5 + i));
  }
  return journal;
}

// `journal`'s records, with next ids one past the largest id of each kind.
SnapshotParts PartsOf(const Journal& journal) {
  SnapshotParts parts;
  parts.interfaces = journal.AllInterfaces();
  parts.gateways = journal.AllGateways();
  parts.subnets = journal.AllSubnets();
  parts.next_interface = OnePastLargestId(parts.interfaces);
  parts.next_gateway = OnePastLargestId(parts.gateways);
  parts.next_subnet = OnePastLargestId(parts.subnets);
  return parts;
}

ByteBuffer EncodeSnapshot(const SnapshotParts& parts) {
  ByteWriter empty;
  Journal().EncodeAll(empty);
  ByteReader header(empty.buffer());
  ByteWriter writer;
  writer.WriteU32(header.ReadU32());  // Magic.
  writer.WriteU16(header.ReadU16());  // Version.
  writer.WriteU32(static_cast<uint32_t>(parts.interfaces.size()));
  for (const auto& rec : parts.interfaces) {
    rec.Encode(writer);
  }
  writer.WriteU32(static_cast<uint32_t>(parts.gateways.size()));
  for (const auto& rec : parts.gateways) {
    rec.Encode(writer);
  }
  writer.WriteU32(static_cast<uint32_t>(parts.subnets.size()));
  for (const auto& rec : parts.subnets) {
    rec.Encode(writer);
  }
  writer.WriteU32(parts.next_interface);
  writer.WriteU32(parts.next_gateway);
  writer.WriteU32(parts.next_subnet);
  writer.WriteBytes(parts.trailing);
  return writer.TakeBuffer();
}

// Loading `parts` must fail and leave the target Journal as it was.
void ExpectRejected(const SnapshotParts& parts) {
  Journal journal;
  journal.StoreInterface(Obs(kIp1), DiscoverySource::kSeqPing, At(1));
  const uint64_t generation = journal.generation();
  const ByteBuffer snapshot = EncodeSnapshot(parts);
  ByteReader reader(snapshot);
  EXPECT_FALSE(journal.DecodeAll(reader));
  EXPECT_EQ(journal.generation(), generation);
  EXPECT_EQ(journal.Stats().interface_count, 1u);
  EXPECT_EQ(journal.Stats().gateway_count, 0u);
  EXPECT_EQ(journal.Stats().subnet_count, 0u);
  EXPECT_EQ(journal.FindInterfacesByIp(kIp1).size(), 1u);
}

TEST(JournalPersistenceTest, EncodeAllRoundTripLoads) {
  const Journal source = TwoOfEach();
  const SnapshotParts parts = PartsOf(source);
  ASSERT_GE(parts.interfaces.size(), 2u);
  ASSERT_GE(parts.gateways.size(), 2u);
  ASSERT_GE(parts.subnets.size(), 2u);
  ByteWriter encoded;
  source.EncodeAll(encoded);
  // The tests below corrupt exactly what EncodeAll writes.
  EXPECT_EQ(EncodeSnapshot(parts), encoded.buffer());

  ByteReader reader(encoded.buffer());
  Journal loaded;
  ASSERT_TRUE(loaded.DecodeAll(reader));
  EXPECT_TRUE(loaded.CheckIndexes());
  EXPECT_EQ(loaded.Stats().interface_count, parts.interfaces.size());
  EXPECT_EQ(loaded.Stats().gateway_count, parts.gateways.size());
  EXPECT_EQ(loaded.Stats().subnet_count, parts.subnets.size());
}

TEST(JournalPersistenceTest, LoadRejectsDuplicateInterfaceId) {
  SnapshotParts parts = PartsOf(TwoOfEach());
  parts.interfaces[1].id = parts.interfaces[0].id;
  ExpectRejected(parts);
}

TEST(JournalPersistenceTest, LoadRejectsDuplicateGatewayId) {
  SnapshotParts parts = PartsOf(TwoOfEach());
  parts.gateways[1].id = parts.gateways[0].id;
  ExpectRejected(parts);
}

TEST(JournalPersistenceTest, LoadRejectsDuplicateSubnetId) {
  SnapshotParts parts = PartsOf(TwoOfEach());
  parts.subnets[1].id = parts.subnets[0].id;
  ExpectRejected(parts);
}

// Two subnet records with the same network: FindSubnet could reach only one.
TEST(JournalPersistenceTest, LoadRejectsDuplicateSubnetNetwork) {
  SnapshotParts parts = PartsOf(TwoOfEach());
  parts.subnets[1].subnet = parts.subnets[0].subnet;
  ExpectRejected(parts);
}

TEST(JournalPersistenceTest, LoadRejectsTrailingBytes) {
  SnapshotParts parts = PartsOf(TwoOfEach());
  parts.trailing = {0};
  ExpectRejected(parts);
}

TEST(JournalPersistenceTest, LoadRejectsNextIdAtOrBelowLargestId) {
  const SnapshotParts valid = PartsOf(TwoOfEach());
  for (const RecordId below : {RecordId{1}, RecordId{2}}) {
    SnapshotParts parts = valid;
    parts.next_interface -= below;
    ExpectRejected(parts);
    parts = valid;
    parts.next_gateway -= below;
    ExpectRejected(parts);
    parts = valid;
    parts.next_subnet -= below;
    ExpectRejected(parts);
  }
}

TEST(JournalMemoryTest, UsageScalesWithRecords) {
  Journal journal;
  for (int i = 0; i < 1000; ++i) {
    InterfaceObservation obs =
        Obs(Ipv4Address(128, 138, static_cast<uint8_t>(i / 250), static_cast<uint8_t>(i % 250)),
            MacAddress::FromIndex(static_cast<uint64_t>(i)));
    obs.dns_name = "host" + std::to_string(i) + ".colorado.edu";
    journal.StoreInterface(obs, DiscoverySource::kArpWatch, At(i));
  }
  JournalMemoryUsage usage = journal.MemoryUsage();
  EXPECT_GT(usage.bytes_per_interface, 100);
  EXPECT_LT(usage.bytes_per_interface, 1000);
  EXPECT_EQ(usage.total_bytes, usage.interface_bytes);  // No gateways/subnets.
}

}  // namespace
}  // namespace fremont
