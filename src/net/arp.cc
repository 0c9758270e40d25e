#include "src/net/arp.h"

namespace fremont {
namespace {

constexpr uint16_t kHardwareEthernet = 1;
constexpr uint16_t kProtocolIpv4 = 0x0800;
constexpr uint8_t kHardwareLen = 6;
constexpr uint8_t kProtocolLen = 4;
// Fixed header (8) + two (MAC, IPv4) address pairs.
constexpr size_t kArpPacketLength = 8 + 2 * (kHardwareLen + kProtocolLen);

}  // namespace

ByteBuffer ArpPacket::Encode() const {
  ByteWriter writer;
  writer.Reserve(kArpPacketLength);
  writer.WriteU16(kHardwareEthernet);
  writer.WriteU16(kProtocolIpv4);
  writer.WriteU8(kHardwareLen);
  writer.WriteU8(kProtocolLen);
  writer.WriteU16(static_cast<uint16_t>(op));
  writer.WriteBytes(sender_mac.octets().data(), 6);
  writer.WriteU32(sender_ip.value());
  writer.WriteBytes(target_mac.octets().data(), 6);
  writer.WriteU32(target_ip.value());
  return writer.TakeBuffer();
}

std::optional<ArpPacket> ArpPacket::Decode(const ByteBuffer& bytes) {
  ByteReader reader(bytes);
  uint16_t hardware = reader.ReadU16();
  uint16_t protocol = reader.ReadU16();
  uint8_t hardware_len = reader.ReadU8();
  uint8_t protocol_len = reader.ReadU8();
  uint16_t op = reader.ReadU16();
  std::array<uint8_t, kHardwareLen> sender_mac;
  reader.ReadInto(sender_mac.data(), sender_mac.size());
  uint32_t sender_ip = reader.ReadU32();
  std::array<uint8_t, kHardwareLen> target_mac;
  reader.ReadInto(target_mac.data(), target_mac.size());
  uint32_t target_ip = reader.ReadU32();
  if (!reader.ok() || hardware != kHardwareEthernet || protocol != kProtocolIpv4 ||
      hardware_len != kHardwareLen || protocol_len != kProtocolLen ||
      (op != static_cast<uint16_t>(ArpOp::kRequest) && op != static_cast<uint16_t>(ArpOp::kReply))) {
    return std::nullopt;
  }
  ArpPacket packet;
  packet.op = static_cast<ArpOp>(op);
  packet.sender_mac = MacAddress(sender_mac);
  packet.sender_ip = Ipv4Address(sender_ip);
  packet.target_mac = MacAddress(target_mac);
  packet.target_ip = Ipv4Address(target_ip);
  return packet;
}

}  // namespace fremont
