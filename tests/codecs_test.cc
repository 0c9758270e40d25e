// Wire-format codec tests: Ethernet, ARP, IPv4, ICMP, UDP — round-trips,
// checksum verification, and malformed-input rejection.

#include <gtest/gtest.h>

#include <utility>

#include "src/net/arp.h"
#include "src/net/ethernet.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/net/udp.h"

namespace fremont {
namespace {

TEST(EthernetCodecTest, RoundTrip) {
  EthernetFrame frame;
  frame.dst = MacAddress(1, 2, 3, 4, 5, 6);
  frame.src = MacAddress(7, 8, 9, 10, 11, 12);
  frame.ethertype = EtherType::kArp;
  frame.payload = {0xaa, 0xbb};

  auto decoded = EthernetFrame::Decode(frame.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->dst, frame.dst);
  EXPECT_EQ(decoded->src, frame.src);
  EXPECT_EQ(decoded->ethertype, EtherType::kArp);
  EXPECT_EQ(decoded->payload, frame.payload);
}

TEST(EthernetCodecTest, RejectsTruncated) {
  ByteBuffer runt{1, 2, 3};
  EXPECT_FALSE(EthernetFrame::Decode(runt).has_value());
}

TEST(ArpCodecTest, RoundTrip) {
  ArpPacket packet;
  packet.op = ArpOp::kReply;
  packet.sender_mac = MacAddress(0x08, 0x00, 0x20, 1, 2, 3);
  packet.sender_ip = Ipv4Address(128, 138, 238, 1);
  packet.target_mac = MacAddress(0x08, 0x00, 0x2b, 4, 5, 6);
  packet.target_ip = Ipv4Address(128, 138, 238, 2);

  auto decoded = ArpPacket::Decode(packet.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, ArpOp::kReply);
  EXPECT_EQ(decoded->sender_mac, packet.sender_mac);
  EXPECT_EQ(decoded->sender_ip, packet.sender_ip);
  EXPECT_EQ(decoded->target_mac, packet.target_mac);
  EXPECT_EQ(decoded->target_ip, packet.target_ip);
}

TEST(ArpCodecTest, RejectsWrongHardwareType) {
  ArpPacket packet;
  ByteBuffer bytes = packet.Encode();
  bytes[0] = 0x00;
  bytes[1] = 0x06;  // IEEE 802 instead of Ethernet.
  EXPECT_FALSE(ArpPacket::Decode(bytes).has_value());
}

TEST(ArpCodecTest, RejectsBadOpcode) {
  ArpPacket packet;
  ByteBuffer bytes = packet.Encode();
  bytes[7] = 9;
  EXPECT_FALSE(ArpPacket::Decode(bytes).has_value());
}

TEST(Ipv4CodecTest, RoundTripWithChecksum) {
  Ipv4Packet packet;
  packet.tos = 0x10;
  packet.identification = 0xbeef;
  packet.ttl = 7;
  packet.protocol = IpProtocol::kIcmp;
  packet.src = Ipv4Address(128, 138, 238, 18);
  packet.dst = Ipv4Address(128, 138, 240, 1);
  packet.payload = {1, 2, 3, 4, 5};

  ByteBuffer bytes = packet.Encode();
  EXPECT_EQ(InternetChecksum(bytes.data(), Ipv4Packet::kHeaderLength), 0);

  auto decoded = Ipv4Packet::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->tos, packet.tos);
  EXPECT_EQ(decoded->identification, packet.identification);
  EXPECT_EQ(decoded->ttl, 7);
  EXPECT_EQ(decoded->protocol, IpProtocol::kIcmp);
  EXPECT_EQ(decoded->src, packet.src);
  EXPECT_EQ(decoded->dst, packet.dst);
  EXPECT_EQ(decoded->payload, packet.payload);
}

TEST(Ipv4CodecTest, RejectsCorruptedHeader) {
  Ipv4Packet packet;
  packet.src = Ipv4Address(1, 2, 3, 4);
  ByteBuffer bytes = packet.Encode();
  bytes[8] ^= 0xff;  // Flip the TTL without fixing the checksum.
  EXPECT_FALSE(Ipv4Packet::Decode(bytes).has_value());
}

TEST(Ipv4CodecTest, RejectsTruncatedAndBadVersion) {
  Ipv4Packet packet;
  ByteBuffer bytes = packet.Encode();
  ByteBuffer truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_FALSE(Ipv4Packet::Decode(truncated).has_value());

  bytes[0] = 0x65;  // Version 6.
  // Fix up checksum so only the version check can reject.
  bytes[10] = bytes[11] = 0;
  uint16_t checksum = InternetChecksum(bytes.data(), Ipv4Packet::kHeaderLength);
  bytes[10] = static_cast<uint8_t>(checksum >> 8);
  bytes[11] = static_cast<uint8_t>(checksum);
  EXPECT_FALSE(Ipv4Packet::Decode(bytes).has_value());
}

TEST(Ipv4CodecTest, HonorsTotalLength) {
  Ipv4Packet packet;
  packet.payload = {9, 9, 9};
  ByteBuffer bytes = packet.Encode();
  bytes.push_back(0xff);  // Trailing link-layer padding.
  auto decoded = Ipv4Packet::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(), 3u);  // Padding excluded.
}

TEST(IcmpCodecTest, EchoRoundTrip) {
  IcmpMessage msg = IcmpMessage::EchoRequest(0x1234, 7, {0xca, 0xfe});
  auto decoded = IcmpMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IcmpType::kEchoRequest);
  EXPECT_EQ(decoded->identifier, 0x1234);
  EXPECT_EQ(decoded->sequence, 7);
  EXPECT_EQ(decoded->echo_data, (ByteBuffer{0xca, 0xfe}));

  IcmpMessage reply = IcmpMessage::EchoReply(0x1234, 7, decoded->echo_data);
  auto decoded_reply = IcmpMessage::Decode(reply.Encode());
  ASSERT_TRUE(decoded_reply.has_value());
  EXPECT_EQ(decoded_reply->type, IcmpType::kEchoReply);
}

TEST(IcmpCodecTest, MaskRoundTrip) {
  IcmpMessage msg = IcmpMessage::MaskReply(1, 2, SubnetMask::FromPrefixLength(26));
  auto decoded = IcmpMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IcmpType::kMaskReply);
  EXPECT_EQ(decoded->address_mask, SubnetMask::FromPrefixLength(26).value());
}

TEST(IcmpCodecTest, TimeExceededCarriesOriginal) {
  Ipv4Packet original;
  original.src = Ipv4Address(1, 1, 1, 1);
  original.dst = Ipv4Address(2, 2, 2, 2);
  ByteBuffer original_bytes = original.Encode();

  IcmpMessage msg = IcmpMessage::TimeExceeded(original_bytes);
  auto decoded = IcmpMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IcmpType::kTimeExceeded);
  EXPECT_EQ(decoded->original_datagram, original_bytes);

  auto inner = Ipv4Packet::Decode(decoded->original_datagram);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->dst, original.dst);
}

TEST(IcmpCodecTest, UnreachableCode) {
  IcmpMessage msg = IcmpMessage::DestUnreachable(IcmpUnreachableCode::kPortUnreachable, {1, 2});
  auto decoded = IcmpMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IcmpType::kDestUnreachable);
  EXPECT_EQ(decoded->code, static_cast<uint8_t>(IcmpUnreachableCode::kPortUnreachable));
}

TEST(IcmpCodecTest, RejectsCorruptionAndUnknownType) {
  IcmpMessage msg = IcmpMessage::EchoRequest(1, 1);
  ByteBuffer bytes = msg.Encode();
  bytes[4] ^= 0x55;  // Corrupt the identifier: checksum now fails.
  EXPECT_FALSE(IcmpMessage::Decode(bytes).has_value());

  IcmpMessage unknown = IcmpMessage::EchoRequest(1, 1);
  ByteBuffer raw = unknown.Encode();
  raw[0] = 99;  // Unknown type; fix checksum.
  raw[2] = raw[3] = 0;
  uint16_t checksum = InternetChecksum(raw);
  raw[2] = static_cast<uint8_t>(checksum >> 8);
  raw[3] = static_cast<uint8_t>(checksum);
  EXPECT_FALSE(IcmpMessage::Decode(raw).has_value());
}

// An encoded IPv4 datagram carrying UDP from port 40001 to `dst_port`.
ByteBuffer UdpPacketBytes(uint16_t dst_port, ByteBuffer payload) {
  UdpDatagram datagram;
  datagram.src_port = 40001;
  datagram.dst_port = dst_port;
  datagram.payload = std::move(payload);
  Ipv4Packet packet;
  packet.protocol = IpProtocol::kUdp;
  packet.src = Ipv4Address(1, 1, 1, 1);
  packet.dst = Ipv4Address(2, 2, 2, 2);
  packet.payload = datagram.Encode();
  return packet.Encode();
}

TEST(IcmpQuoteTest, FullQuoteYieldsPorts) {
  const auto ports = QuotedUdpPorts(UdpPacketBytes(33434, {}));
  ASSERT_TRUE(ports.has_value());
  EXPECT_EQ(ports->src, 40001);
  EXPECT_EQ(ports->dst, 33434);
}

TEST(IcmpQuoteTest, TruncatedQuoteOfDatagramWithPayloadYieldsPorts) {
  // RFC 792 quotes the IP header and 8 bytes: the UDP header, no payload.
  ByteBuffer quote = UdpPacketBytes(53, ByteBuffer(40, 0xab));
  quote.resize(Ipv4Packet::kHeaderLength + 8);
  EXPECT_FALSE(Ipv4Packet::Decode(quote).has_value());  // Total length says 68.
  const auto ports = QuotedUdpPorts(quote);
  ASSERT_TRUE(ports.has_value());
  EXPECT_EQ(ports->src, 40001);
  EXPECT_EQ(ports->dst, 53);
}

TEST(IcmpQuoteTest, NonUdpQuoteIsRejected) {
  Ipv4Packet echo;
  echo.protocol = IpProtocol::kIcmp;
  echo.payload = IcmpMessage::EchoRequest(0x1234, 7).Encode();
  EXPECT_FALSE(QuotedUdpPorts(echo.Encode()).has_value());
}

TEST(IcmpQuoteTest, HeaderWithOptionsIsRejected) {
  ByteBuffer quote = UdpPacketBytes(33434, {});
  quote[0] = 0x46;  // IHL 6: the ports would not be at byte 20.
  EXPECT_FALSE(QuotedUdpPorts(quote).has_value());
}

TEST(IcmpQuoteTest, ShortQuotesAreRejected) {
  const ByteBuffer full = UdpPacketBytes(33434, {});
  EXPECT_FALSE(QuotedUdpPorts({}).has_value());
  for (size_t size = 1; size < Ipv4Packet::kHeaderLength + 4; ++size) {
    EXPECT_FALSE(QuotedUdpPorts(ByteBuffer(full.begin(), full.begin() + size)).has_value())
        << size;
  }
  const auto ports = QuotedUdpPorts(ByteBuffer(full.begin(), full.begin() + 24));
  ASSERT_TRUE(ports.has_value());
  EXPECT_EQ(ports->dst, 33434);
}

TEST(UdpCodecTest, RoundTrip) {
  UdpDatagram datagram;
  datagram.src_port = 40000;
  datagram.dst_port = kUdpEchoPort;
  datagram.payload = {5, 6, 7};
  auto decoded = UdpDatagram::Decode(datagram.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src_port, 40000);
  EXPECT_EQ(decoded->dst_port, kUdpEchoPort);
  EXPECT_EQ(decoded->payload, datagram.payload);
}

TEST(UdpCodecTest, RejectsBadLength) {
  UdpDatagram datagram;
  datagram.payload = {1, 2, 3, 4};
  ByteBuffer bytes = datagram.Encode();
  bytes[5] = 200;  // Length field larger than the buffer.
  EXPECT_FALSE(UdpDatagram::Decode(bytes).has_value());
  ByteBuffer runt{0, 1, 2};
  EXPECT_FALSE(UdpDatagram::Decode(runt).has_value());
}

}  // namespace
}  // namespace fremont
