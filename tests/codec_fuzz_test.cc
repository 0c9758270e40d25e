// Property tests over the wire codecs:
//
//   1. Round-trip: Encode → Decode is the identity for random well-formed
//      messages of every protocol.
//   2. Robustness: Decode of random garbage, random truncations, and random
//      single-byte corruptions never crashes, and for checksummed protocols
//      corruption is detected.
//   3. Parity: RipPacket::DecodeInto into a reused packet accepts, rejects
//      and yields exactly what Decode does.
//
// Each property runs across several RNG seeds via parameterized gtest.

#include <gtest/gtest.h>

#include "src/net/arp.h"
#include "src/net/dns.h"
#include "src/net/ethernet.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/net/rip.h"
#include "src/net/udp.h"
#include "src/util/rng.h"

namespace fremont {
namespace {

MacAddress RandomMac(Rng& rng) {
  return MacAddress(static_cast<uint8_t>(rng.Uniform(0, 255) & ~0x01),  // Unicast.
                    static_cast<uint8_t>(rng.Uniform(0, 255)), static_cast<uint8_t>(rng.Uniform(0, 255)),
                    static_cast<uint8_t>(rng.Uniform(0, 255)), static_cast<uint8_t>(rng.Uniform(0, 255)),
                    static_cast<uint8_t>(rng.Uniform(0, 255)));
}

Ipv4Address RandomIp(Rng& rng) {
  return Ipv4Address(static_cast<uint32_t>(rng.Uniform(1, 0xdfffffff)));  // Unicast classes.
}

ByteBuffer RandomPayload(Rng& rng, size_t max_len) {
  ByteBuffer out(static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(max_len))));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Uniform(0, 255));
  }
  return out;
}

std::string RandomLabelName(Rng& rng) {
  static const char* kLabels[] = {"alpha", "beta", "cs", "ee", "gw", "colorado", "edu", "x1"};
  std::string name;
  const int labels = static_cast<int>(rng.Uniform(1, 4));
  for (int i = 0; i < labels; ++i) {
    if (i > 0) {
      name += ".";
    }
    name += kLabels[rng.Uniform(0, 7)];
  }
  return name;
}

class CodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzTest, EthernetRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    EthernetFrame frame;
    frame.dst = RandomMac(rng);
    frame.src = RandomMac(rng);
    frame.ethertype = rng.Bernoulli(0.5) ? EtherType::kIpv4 : EtherType::kArp;
    frame.payload = RandomPayload(rng, 200);
    auto decoded = EthernetFrame::Decode(frame.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->dst, frame.dst);
    EXPECT_EQ(decoded->src, frame.src);
    EXPECT_EQ(decoded->payload, frame.payload);
  }
}

TEST_P(CodecFuzzTest, ArpRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    ArpPacket packet;
    packet.op = rng.Bernoulli(0.5) ? ArpOp::kRequest : ArpOp::kReply;
    packet.sender_mac = RandomMac(rng);
    packet.sender_ip = RandomIp(rng);
    packet.target_mac = RandomMac(rng);
    packet.target_ip = RandomIp(rng);
    auto decoded = ArpPacket::Decode(packet.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->op, packet.op);
    EXPECT_EQ(decoded->sender_ip, packet.sender_ip);
    EXPECT_EQ(decoded->target_mac, packet.target_mac);
  }
}

TEST_P(CodecFuzzTest, Ipv4RoundTripAndCorruptionDetection) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Ipv4Packet packet;
    packet.tos = static_cast<uint8_t>(rng.Uniform(0, 255));
    packet.identification = static_cast<uint16_t>(rng.Uniform(0, 65535));
    packet.ttl = static_cast<uint8_t>(rng.Uniform(1, 255));
    packet.protocol = static_cast<IpProtocol>(rng.Uniform(1, 20));
    packet.src = RandomIp(rng);
    packet.dst = RandomIp(rng);
    packet.payload = RandomPayload(rng, 100);
    ByteBuffer bytes = packet.Encode();

    auto decoded = Ipv4Packet::Decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->ttl, packet.ttl);
    EXPECT_EQ(decoded->src, packet.src);
    EXPECT_EQ(decoded->payload, packet.payload);

    // Any single-byte header corruption must be caught by the checksum
    // (flipping a byte to the same value is not a corruption).
    const size_t pos = static_cast<size_t>(rng.Uniform(0, Ipv4Packet::kHeaderLength - 1));
    const uint8_t flip = static_cast<uint8_t>(rng.Uniform(1, 255));
    bytes[pos] ^= flip;
    EXPECT_FALSE(Ipv4Packet::Decode(bytes).has_value())
        << "undetected corruption at header byte " << pos;
  }
}

TEST_P(CodecFuzzTest, IcmpRoundTripAndCorruptionDetection) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    IcmpMessage msg;
    switch (rng.Uniform(0, 3)) {
      case 0:
        msg = IcmpMessage::EchoRequest(static_cast<uint16_t>(rng.Uniform(0, 65535)),
                                       static_cast<uint16_t>(rng.Uniform(0, 65535)),
                                       RandomPayload(rng, 64));
        break;
      case 1:
        msg = IcmpMessage::MaskReply(1, 2,
                                     SubnetMask::FromPrefixLength(static_cast<int>(rng.Uniform(0, 32))));
        break;
      case 2:
        msg = IcmpMessage::TimeExceeded(RandomPayload(rng, 28));
        break;
      default:
        msg = IcmpMessage::DestUnreachable(IcmpUnreachableCode::kPortUnreachable,
                                           RandomPayload(rng, 28));
        break;
    }
    ByteBuffer bytes = msg.Encode();
    auto decoded = IcmpMessage::Decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, msg.type);

    const size_t pos = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<uint8_t>(rng.Uniform(1, 255));
    EXPECT_FALSE(IcmpMessage::Decode(bytes).has_value());
  }
}

TEST_P(CodecFuzzTest, UdpRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    UdpDatagram datagram;
    datagram.src_port = static_cast<uint16_t>(rng.Uniform(0, 65535));
    datagram.dst_port = static_cast<uint16_t>(rng.Uniform(0, 65535));
    datagram.payload = RandomPayload(rng, 256);
    auto decoded = UdpDatagram::Decode(datagram.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->src_port, datagram.src_port);
    EXPECT_EQ(decoded->payload, datagram.payload);
  }
}

TEST_P(CodecFuzzTest, RipRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    RipPacket packet;
    packet.command = rng.Bernoulli(0.8) ? RipCommand::kResponse : RipCommand::kRequest;
    const int entries = static_cast<int>(rng.Uniform(0, 25));
    for (int e = 0; e < entries; ++e) {
      packet.entries.push_back(
          RipEntry{RandomIp(rng), static_cast<uint32_t>(rng.Uniform(1, 16))});
    }
    auto decoded = RipPacket::Decode(packet.Encode());
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->entries.size(), packet.entries.size());
    for (size_t e = 0; e < packet.entries.size(); ++e) {
      EXPECT_EQ(decoded->entries[e].address, packet.entries[e].address);
      EXPECT_EQ(decoded->entries[e].metric, packet.entries[e].metric);
    }
  }
}

TEST_P(CodecFuzzTest, DnsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    DnsMessage msg;
    msg.id = static_cast<uint16_t>(rng.Uniform(0, 65535));
    msg.is_response = rng.Bernoulli(0.5);
    msg.authoritative = rng.Bernoulli(0.5);
    msg.questions.push_back(DnsQuestion{RandomLabelName(rng), DnsType::kA});
    const int answers = static_cast<int>(rng.Uniform(0, 8));
    for (int a = 0; a < answers; ++a) {
      switch (rng.Uniform(0, 2)) {
        case 0:
          msg.answers.push_back(DnsResourceRecord::MakeA(RandomLabelName(rng), RandomIp(rng)));
          break;
        case 1:
          msg.answers.push_back(
              DnsResourceRecord::MakePtr(ReverseDomainName(RandomIp(rng)), RandomLabelName(rng)));
          break;
        default:
          msg.answers.push_back(
              DnsResourceRecord::MakeHinfo(RandomLabelName(rng), "SUN-4/65", "UNIX"));
          break;
      }
    }
    auto decoded = DnsMessage::Decode(msg.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->id, msg.id);
    EXPECT_EQ(decoded->is_response, msg.is_response);
    ASSERT_EQ(decoded->answers.size(), msg.answers.size());
    for (size_t a = 0; a < msg.answers.size(); ++a) {
      EXPECT_EQ(decoded->answers[a].type, msg.answers[a].type);
      EXPECT_EQ(decoded->answers[a].name, msg.answers[a].name);
    }
  }
}

TEST_P(CodecFuzzTest, DecodersNeverCrashOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    ByteBuffer garbage = RandomPayload(rng, 96);
    // None of these may crash; most must reject.
    (void)EthernetFrame::Decode(garbage);
    (void)ArpPacket::Decode(garbage);
    (void)Ipv4Packet::Decode(garbage);
    (void)IcmpMessage::Decode(garbage);
    (void)UdpDatagram::Decode(garbage);
    (void)RipPacket::Decode(garbage);
    (void)DnsMessage::Decode(garbage);
  }
}

TEST_P(CodecFuzzTest, DecodersNeverCrashOnTruncations) {
  Rng rng(GetParam());
  // A valid DNS response truncated at every possible length.
  DnsMessage msg;
  msg.is_response = true;
  msg.questions.push_back(DnsQuestion{"boulder.cs.colorado.edu", DnsType::kA});
  msg.answers.push_back(DnsResourceRecord::MakeA("boulder.cs.colorado.edu",
                                                 Ipv4Address(128, 138, 238, 18)));
  msg.answers.push_back(
      DnsResourceRecord::MakePtr("18.238.138.128.in-addr.arpa", "boulder.cs.colorado.edu"));
  const ByteBuffer full = msg.Encode();
  for (size_t len = 0; len < full.size(); ++len) {
    ByteBuffer truncated(full.begin(), full.begin() + static_cast<long>(len));
    EXPECT_FALSE(DnsMessage::Decode(truncated).has_value()) << "accepted truncation " << len;
  }
  // Same for a RIP packet.
  RipPacket rip;
  rip.entries.push_back(RipEntry{Ipv4Address(10, 0, 0, 0), 1});
  const ByteBuffer rip_full = rip.Encode();
  for (size_t len = 1; len < rip_full.size(); ++len) {
    ByteBuffer truncated(rip_full.begin(), rip_full.begin() + static_cast<long>(len));
    (void)RipPacket::Decode(truncated);  // Must not crash (short ones reject).
  }
}

RipPacket RandomRipPacket(Rng& rng, int entries) {
  RipPacket packet;
  packet.command = rng.Bernoulli(0.8) ? RipCommand::kResponse : RipCommand::kRequest;
  for (int e = 0; e < entries; ++e) {
    packet.entries.push_back(RipEntry{RandomIp(rng), static_cast<uint32_t>(rng.Uniform(1, 16))});
  }
  return packet;
}

// DecodeInto a packet still holding an earlier 25-entry decode must accept
// exactly what Decode accepts and leave exactly Decode's command and entries.
void ExpectDecodeIntoMatchesDecode(const ByteBuffer& bytes, const RipPacket& earlier) {
  RipPacket reused = earlier;
  const std::optional<RipPacket> fresh = RipPacket::Decode(bytes);
  const bool accepted = RipPacket::DecodeInto(bytes, &reused);
  ASSERT_EQ(accepted, fresh.has_value()) << BytesToHex(bytes.data(), bytes.size());
  if (!accepted) {
    return;
  }
  EXPECT_EQ(reused.command, fresh->command);
  ASSERT_EQ(reused.entries.size(), fresh->entries.size());
  for (size_t e = 0; e < fresh->entries.size(); ++e) {
    EXPECT_EQ(reused.entries[e].address, fresh->entries[e].address);
    EXPECT_EQ(reused.entries[e].metric, fresh->entries[e].metric);
  }
}

TEST_P(CodecFuzzTest, RipDecodeIntoReusedPacketMatchesDecode) {
  Rng rng(GetParam());
  RipPacket earlier;
  ASSERT_TRUE(RipPacket::DecodeInto(RandomRipPacket(rng, 25).Encode(), &earlier));
  ASSERT_EQ(earlier.entries.size(), 25u);

  for (int i = 0; i < 500; ++i) {
    // Well-formed packets of every size, some with non-IP address families
    // (skipped by both) and some with a byte corrupted or a tail appended.
    ByteBuffer bytes = RandomRipPacket(rng, static_cast<int>(rng.Uniform(0, 25))).Encode();
    for (size_t offset = 4; offset + 20 <= bytes.size(); offset += 20) {
      if (rng.Bernoulli(0.2)) {
        bytes[offset + 1] = static_cast<uint8_t>(rng.Uniform(0, 255));
      }
    }
    ExpectDecodeIntoMatchesDecode(bytes, earlier);
    if (!bytes.empty()) {
      ByteBuffer corrupted = bytes;
      corrupted[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(bytes.size()) - 1))] ^=
          static_cast<uint8_t>(rng.Uniform(1, 255));
      ExpectDecodeIntoMatchesDecode(corrupted, earlier);
    }
    ByteBuffer tailed = bytes;
    const ByteBuffer tail = RandomPayload(rng, 40);
    tailed.insert(tailed.end(), tail.begin(), tail.end());
    ExpectDecodeIntoMatchesDecode(tailed, earlier);

    // Garbage, alone and behind a valid RIPv1 header.
    const ByteBuffer garbage = RandomPayload(rng, 96);
    ExpectDecodeIntoMatchesDecode(garbage, earlier);
    ByteBuffer headed = {static_cast<uint8_t>(RipCommand::kResponse), 1, 0, 0};
    headed.insert(headed.end(), garbage.begin(), garbage.end());
    ExpectDecodeIntoMatchesDecode(headed, earlier);
  }

  // A full packet truncated at every length.
  const ByteBuffer full = RandomRipPacket(rng, 25).Encode();
  for (size_t len = 0; len <= full.size(); ++len) {
    ExpectDecodeIntoMatchesDecode(ByteBuffer(full.begin(), full.begin() + static_cast<long>(len)),
                                  earlier);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Values(1u, 7u, 42u, 1993u, 0xfeedu));

}  // namespace
}  // namespace fremont
