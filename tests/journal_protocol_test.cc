// Tests for the Journal wire protocol and the server/client round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/journal/client.h"
#include "src/journal/protocol.h"
#include "src/journal/server.h"

namespace fremont {
namespace {

InterfaceObservation SampleInterfaceObs() {
  InterfaceObservation obs;
  obs.ip = Ipv4Address(128, 138, 238, 10);
  obs.mac = MacAddress(0x08, 0x00, 0x20, 1, 2, 3);
  obs.dns_name = "boulder.cs.colorado.edu";
  obs.mask = SubnetMask::FromPrefixLength(24);
  obs.rip_source = true;
  return obs;
}

TEST(JournalProtocolTest, StoreInterfaceRequestRoundTrip) {
  JournalRequest req;
  req.type = RequestType::kStoreInterface;
  req.source = DiscoverySource::kArpWatch;
  req.interface_obs = SampleInterfaceObs();

  auto decoded = JournalRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RequestType::kStoreInterface);
  EXPECT_EQ(decoded->source, DiscoverySource::kArpWatch);
  ASSERT_TRUE(decoded->interface_obs.has_value());
  EXPECT_EQ(decoded->interface_obs->ip, req.interface_obs->ip);
  EXPECT_EQ(decoded->interface_obs->mac, req.interface_obs->mac);
  EXPECT_EQ(decoded->interface_obs->dns_name, req.interface_obs->dns_name);
  EXPECT_EQ(decoded->interface_obs->mask, req.interface_obs->mask);
  EXPECT_TRUE(decoded->interface_obs->rip_source);
}

TEST(JournalProtocolTest, SelectorRoundTrips) {
  for (const Selector& selector :
       {Selector::All(), Selector::ByIp(Ipv4Address(1, 2, 3, 4)),
        Selector::ByMac(MacAddress(1, 2, 3, 4, 5, 6)), Selector::ByName("x.colorado.edu"),
        Selector::InSubnet(*Subnet::Parse("128.138.238.0/24")),
        Selector::ModifiedSince(SimTime::FromMicros(123456))}) {
    JournalRequest req;
    req.type = RequestType::kGetInterfaces;
    req.selector = selector;
    auto decoded = JournalRequest::Decode(req.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->selector.kind, selector.kind);
    EXPECT_EQ(decoded->selector.ip, selector.ip);
    EXPECT_EQ(decoded->selector.ip_hi, selector.ip_hi);
    EXPECT_EQ(decoded->selector.name, selector.name);
    EXPECT_EQ(decoded->selector.since, selector.since);
  }
}

TEST(JournalProtocolTest, ResponseWithRecordsRoundTrips) {
  JournalResponse resp;
  resp.status = ResponseStatus::kOk;
  InterfaceRecord iface;
  iface.id = 3;
  iface.ip = Ipv4Address(1, 2, 3, 4);
  iface.mac = MacAddress(9, 8, 7, 6, 5, 4);
  iface.dns_name = "a.b";
  iface.sources = SourceBit(DiscoverySource::kDns);
  iface.ts.last_verified = SimTime::FromMicros(42);
  resp.interfaces.push_back(iface);
  GatewayRecord gw;
  gw.id = 5;
  gw.name = "gw.a.b";
  gw.interface_ids = {3};
  gw.connected_subnets = {*Subnet::Parse("1.2.3.0/24")};
  resp.gateways.push_back(gw);
  SubnetRecord subnet;
  subnet.id = 7;
  subnet.subnet = *Subnet::Parse("1.2.3.0/24");
  subnet.gateway_ids = {5};
  subnet.host_count = 12;
  resp.subnets.push_back(subnet);

  auto decoded = JournalResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->interfaces.size(), 1u);
  EXPECT_EQ(decoded->interfaces[0].id, 3u);
  EXPECT_EQ(decoded->interfaces[0].ts.last_verified, SimTime::FromMicros(42));
  ASSERT_EQ(decoded->gateways.size(), 1u);
  EXPECT_EQ(decoded->gateways[0].name, "gw.a.b");
  EXPECT_EQ(decoded->gateways[0].connected_subnets[0], *Subnet::Parse("1.2.3.0/24"));
  ASSERT_EQ(decoded->subnets.size(), 1u);
  EXPECT_EQ(decoded->subnets[0].host_count, 12);
}

TEST(JournalProtocolTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(JournalRequest::Decode({}).has_value());
  EXPECT_FALSE(JournalRequest::Decode({0xff, 0x00}).has_value());
  EXPECT_FALSE(JournalResponse::Decode({0xff}).has_value());
}

// The decoder accepts exactly the RequestType enumerators. RequestTypeName()
// names every enumerator (the build fails otherwise), so it tells the sweep
// which type bytes must decode; every other byte must be rejected even when
// a well-formed body follows it.
TEST(JournalProtocolTest, EveryRequestTypeDecodesAndNoOtherTypeByteDoes) {
  JournalRequest get;
  get.type = RequestType::kGetInterfaces;
  const ByteBuffer get_frame = get.Encode();
  size_t enumerators = 0;
  for (int byte = 0; byte <= 0xff; ++byte) {
    const auto type = static_cast<RequestType>(byte);
    if (std::string(RequestTypeName(type)) == "unknown") {
      ByteBuffer frame = get_frame;
      frame[0] = static_cast<uint8_t>(byte);
      EXPECT_FALSE(JournalRequest::Decode(frame).has_value()) << "type byte " << byte;
      continue;
    }
    ++enumerators;
    JournalRequest req;
    req.type = type;
    if (type == RequestType::kStoreInterface) {
      req.interface_obs = SampleInterfaceObs();
    } else if (type == RequestType::kStoreGateway) {
      req.gateway_obs.emplace().interface_ips.push_back(Ipv4Address(128, 138, 238, 1));
    } else if (type == RequestType::kStoreSubnet) {
      req.subnet_obs.emplace().subnet = *Subnet::Parse("128.138.238.0/24");
    }
    const auto decoded = JournalRequest::Decode(req.Encode());
    ASSERT_TRUE(decoded.has_value()) << RequestTypeName(type);
    EXPECT_EQ(decoded->type, type);
  }
  EXPECT_EQ(enumerators, 15u);

  ByteBuffer frame = get_frame;
  for (const uint8_t byte : {0, 16}) {
    frame[0] = byte;
    EXPECT_FALSE(JournalRequest::Decode(frame).has_value()) << "type byte " << int{byte};
  }
}

class JournalServerTest : public ::testing::Test {
 protected:
  JournalServerTest() : server_([this]() { return now_; }), client_(&server_) {}

  SimTime now_ = SimTime::Epoch() + Duration::Hours(1);
  JournalServer server_;
  JournalClient client_;
};

TEST_F(JournalServerTest, StoreAndGetThroughWireProtocol) {
  auto result = client_.StoreInterface(SampleInterfaceObs(), DiscoverySource::kArpWatch);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.created);
  EXPECT_NE(result.id, kInvalidRecordId);

  auto all = client_.GetInterfaces();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].dns_name, "boulder.cs.colorado.edu");
  EXPECT_EQ(all[0].ts.last_verified, now_);

  auto by_name = client_.GetInterfaces(Selector::ByName("boulder.cs.colorado.edu"));
  EXPECT_EQ(by_name.size(), 1u);
  auto by_ip = client_.GetInterfaces(Selector::ByIp(Ipv4Address(128, 138, 238, 10)));
  EXPECT_EQ(by_ip.size(), 1u);
  EXPECT_TRUE(client_.GetInterfaces(Selector::ByIp(Ipv4Address(9, 9, 9, 9))).empty());
}

TEST_F(JournalServerTest, TimestampsComeFromServerClock) {
  client_.StoreInterface(SampleInterfaceObs(), DiscoverySource::kArpWatch);
  now_ += Duration::Hours(2);
  client_.StoreInterface(SampleInterfaceObs(), DiscoverySource::kSeqPing);
  auto all = client_.GetInterfaces();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].ts.first_discovered, SimTime::Epoch() + Duration::Hours(1));
  EXPECT_EQ(all[0].ts.last_verified, SimTime::Epoch() + Duration::Hours(3));
}

TEST_F(JournalServerTest, ModifiedSinceSelector) {
  client_.StoreInterface(SampleInterfaceObs(), DiscoverySource::kArpWatch);
  now_ += Duration::Hours(5);
  InterfaceObservation other;
  other.ip = Ipv4Address(1, 1, 1, 1);
  client_.StoreInterface(other, DiscoverySource::kSeqPing);
  auto recent =
      client_.GetInterfaces(Selector::ModifiedSince(SimTime::Epoch() + Duration::Hours(4)));
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].ip, Ipv4Address(1, 1, 1, 1));
}

TEST_F(JournalServerTest, GatewaySubnetAndDelete) {
  GatewayObservation gw;
  gw.name = "gw";
  gw.interface_ips = {Ipv4Address(10, 0, 0, 1)};
  gw.connected_subnets = {*Subnet::Parse("10.0.0.0/24")};
  auto stored = client_.StoreGateway(gw, DiscoverySource::kTraceroute);
  EXPECT_TRUE(stored.ok);
  EXPECT_EQ(client_.GetGateways().size(), 1u);
  EXPECT_EQ(client_.GetSubnets().size(), 1u);

  auto stats = client_.GetStats();
  EXPECT_EQ(stats.interface_count, 1u);
  EXPECT_EQ(stats.gateway_count, 1u);
  EXPECT_EQ(stats.subnet_count, 1u);

  EXPECT_TRUE(client_.DeleteGateway(stored.id));
  EXPECT_FALSE(client_.DeleteGateway(stored.id));
  EXPECT_TRUE(client_.GetGateways().empty());
}

TEST_F(JournalServerTest, MalformedRequestRejected) {
  ByteBuffer garbage{0x00, 0x99, 0x99};
  auto response = JournalResponse::Decode(server_.HandleRequest(garbage));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, ResponseStatus::kMalformedRequest);
}

// --- Protocol v2: batch framing and generation-stamped queries --------------

TEST(JournalProtocolTest, BatchRequestRoundTrip) {
  JournalRequest batch;
  batch.type = RequestType::kBatch;

  JournalRequest store;
  store.type = RequestType::kStoreInterface;
  store.source = DiscoverySource::kSeqPing;
  store.interface_obs = SampleInterfaceObs();
  store.obs_time = SimTime::FromMicros(777);
  batch.batch.push_back(store);

  JournalRequest subnet;
  subnet.type = RequestType::kStoreSubnet;
  subnet.source = DiscoverySource::kRipWatch;
  subnet.subnet_obs = SubnetObservation{};
  subnet.subnet_obs->subnet = *Subnet::Parse("128.138.238.0/24");
  batch.batch.push_back(subnet);  // No obs_time: stamped at flush.

  JournalRequest del;
  del.type = RequestType::kDeleteGateway;
  del.delete_id = 42;
  batch.batch.push_back(del);

  auto decoded = JournalRequest::Decode(batch.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RequestType::kBatch);
  ASSERT_EQ(decoded->batch.size(), 3u);
  EXPECT_EQ(decoded->batch[0].type, RequestType::kStoreInterface);
  EXPECT_EQ(decoded->batch[0].source, DiscoverySource::kSeqPing);
  ASSERT_TRUE(decoded->batch[0].obs_time.has_value());
  EXPECT_EQ(*decoded->batch[0].obs_time, SimTime::FromMicros(777));
  ASSERT_TRUE(decoded->batch[0].interface_obs.has_value());
  EXPECT_EQ(decoded->batch[0].interface_obs->dns_name, "boulder.cs.colorado.edu");
  EXPECT_EQ(decoded->batch[1].type, RequestType::kStoreSubnet);
  EXPECT_FALSE(decoded->batch[1].obs_time.has_value());
  EXPECT_EQ(decoded->batch[2].type, RequestType::kDeleteGateway);
  EXPECT_EQ(decoded->batch[2].delete_id, 42u);
}

TEST(JournalProtocolTest, BatchFrameFromSpanMatchesWrapperEncoding) {
  std::vector<JournalRequest> items(2);
  items[0].type = RequestType::kStoreInterface;
  items[0].source = DiscoverySource::kArpWatch;
  items[0].interface_obs = SampleInterfaceObs();
  items[1].type = RequestType::kDeleteSubnet;
  items[1].delete_id = 9;

  JournalRequest wrapper;
  wrapper.type = RequestType::kBatch;
  wrapper.batch = items;

  ByteWriter span_writer;
  JournalRequest::EncodeBatchFrame(span_writer, DiscoverySource::kNone, items.data(),
                                   items.size());
  EXPECT_EQ(span_writer.buffer(), wrapper.Encode());
}

TEST(JournalProtocolTest, NestedBatchAndReadsInsideBatchRejected) {
  JournalRequest inner;
  inner.type = RequestType::kBatch;
  JournalRequest outer;
  outer.type = RequestType::kBatch;
  outer.batch.push_back(inner);
  EXPECT_FALSE(JournalRequest::Decode(outer.Encode()).has_value());

  JournalRequest get;
  get.type = RequestType::kGetInterfaces;
  JournalRequest batch;
  batch.type = RequestType::kBatch;
  batch.batch.push_back(get);
  EXPECT_FALSE(JournalRequest::Decode(batch.Encode()).has_value());
}

TEST(JournalProtocolTest, V1FramingBytesUnchanged) {
  // GetStats is the minimal request: type + source, nothing else. A v2
  // encoder must not grow it.
  JournalRequest stats;
  stats.type = RequestType::kGetStats;
  EXPECT_EQ(stats.Encode().size(), 3u);

  // Get with if_generation == 0 (the v1 value) stays at the v1 length:
  // 3-byte header + 29-byte selector. Setting the generation appends
  // exactly the 8-byte trailing tag.
  JournalRequest get;
  get.type = RequestType::kGetInterfaces;
  EXPECT_EQ(get.Encode().size(), 32u);
  get.if_generation = 7;
  EXPECT_EQ(get.Encode().size(), 40u);

  auto decoded = JournalRequest::Decode(get.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->if_generation, 7u);
}

TEST_F(JournalServerTest, BatchThroughServerAppliesEveryItemWithItsObsTime) {
  std::vector<JournalRequest> items(2);
  items[0].type = RequestType::kStoreInterface;
  items[0].source = DiscoverySource::kArpWatch;
  items[0].interface_obs = SampleInterfaceObs();
  items[0].obs_time = now_ - Duration::Minutes(10);  // Observed before the flush.
  items[1].type = RequestType::kStoreInterface;
  items[1].source = DiscoverySource::kSeqPing;
  items[1].interface_obs = InterfaceObservation{};
  items[1].interface_obs->ip = Ipv4Address(10, 0, 0, 9);

  auto results = client_.StoreBatch(std::move(items));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, ResponseStatus::kOk);
  EXPECT_TRUE(results[0].created);
  EXPECT_EQ(results[1].status, ResponseStatus::kOk);

  auto stored = client_.GetInterfaces(Selector::ByIp(Ipv4Address(128, 138, 238, 10)));
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].ts.last_verified, now_ - Duration::Minutes(10));
  auto unstamped = client_.GetInterfaces(Selector::ByIp(Ipv4Address(10, 0, 0, 9)));
  ASSERT_EQ(unstamped.size(), 1u);
  EXPECT_EQ(unstamped[0].ts.last_verified, now_);  // No obs_time: server clock.
}

TEST_F(JournalServerTest, ConditionalGetReturnsNotModified) {
  client_.StoreInterface(SampleInterfaceObs(), DiscoverySource::kArpWatch);
  const uint64_t gen = client_.last_seen_generation();
  ASSERT_NE(gen, 0u);

  JournalRequest get;
  get.type = RequestType::kGetInterfaces;
  get.if_generation = gen;
  auto unchanged = JournalResponse::Decode(server_.HandleRequest(get.Encode()));
  ASSERT_TRUE(unchanged.has_value());
  EXPECT_EQ(unchanged->status, ResponseStatus::kNotModified);
  EXPECT_TRUE(unchanged->interfaces.empty());
  EXPECT_EQ(unchanged->generation, gen);

  // Any mutation bumps the generation and the same conditional get now
  // returns the records.
  InterfaceObservation other;
  other.ip = Ipv4Address(3, 3, 3, 3);
  client_.StoreInterface(other, DiscoverySource::kSeqPing);
  auto modified = JournalResponse::Decode(server_.HandleRequest(get.Encode()));
  ASSERT_TRUE(modified.has_value());
  EXPECT_EQ(modified->status, ResponseStatus::kOk);
  EXPECT_EQ(modified->interfaces.size(), 2u);
  EXPECT_GT(modified->generation, gen);
}

TEST_F(JournalServerTest, EveryResponseCarriesGeneration) {
  client_.StoreInterface(SampleInterfaceObs(), DiscoverySource::kArpWatch);
  const uint64_t after_store = client_.last_seen_generation();
  EXPECT_NE(after_store, 0u);
  client_.GetInterfaces();
  EXPECT_EQ(client_.last_seen_generation(), after_store);  // Reads do not bump it.
  client_.DeleteInterface(client_.GetInterfaces()[0].id);
  EXPECT_GT(client_.last_seen_generation(), after_store);
}

TEST_F(JournalServerTest, CheckpointWritesPeriodically) {
  const std::string path = ::testing::TempDir() + "/journal_checkpoint.bin";
  std::remove(path.c_str());
  server_.EnableCheckpoint(path, Duration::Minutes(30));
  client_.StoreInterface(SampleInterfaceObs(), DiscoverySource::kArpWatch);
  // Not yet due.
  EXPECT_NE(std::ifstream(path).good(), true);
  now_ += Duration::Hours(1);
  InterfaceObservation other;
  other.ip = Ipv4Address(2, 2, 2, 2);
  client_.StoreInterface(other, DiscoverySource::kArpWatch);

  Journal loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));
  EXPECT_EQ(loaded.Stats().interface_count, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fremont
