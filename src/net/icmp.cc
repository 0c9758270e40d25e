#include "src/net/icmp.h"

#include "src/net/ipv4.h"

namespace fremont {
namespace {

// Type, code and checksum, then the type's second 32-bit word.
constexpr size_t kHeaderLength = 8;

}  // namespace

ByteBuffer IcmpMessage::Encode() const {
  ByteWriter writer;
  switch (type) {
    case IcmpType::kEchoRequest:
    case IcmpType::kEchoReply:
      writer.Reserve(kHeaderLength + echo_data.size());
      break;
    case IcmpType::kMaskRequest:
    case IcmpType::kMaskReply:
      writer.Reserve(kHeaderLength + 4);
      break;
    case IcmpType::kTimeExceeded:
    case IcmpType::kDestUnreachable:
      writer.Reserve(kHeaderLength + original_datagram.size());
      break;
  }
  writer.WriteU8(static_cast<uint8_t>(type));
  writer.WriteU8(code);
  const size_t checksum_offset = writer.size();
  writer.WriteU16(0);
  switch (type) {
    case IcmpType::kEchoRequest:
    case IcmpType::kEchoReply:
      writer.WriteU16(identifier);
      writer.WriteU16(sequence);
      writer.WriteBytes(echo_data);
      break;
    case IcmpType::kMaskRequest:
    case IcmpType::kMaskReply:
      writer.WriteU16(identifier);
      writer.WriteU16(sequence);
      writer.WriteU32(address_mask);
      break;
    case IcmpType::kTimeExceeded:
    case IcmpType::kDestUnreachable:
      writer.WriteU32(0);  // Unused field.
      writer.WriteBytes(original_datagram);
      break;
  }
  writer.PatchU16(checksum_offset, InternetChecksum(writer.buffer()));
  return writer.TakeBuffer();
}

std::optional<IcmpMessage> IcmpMessage::Decode(const ByteBuffer& bytes) {
  if (bytes.size() < 4 || InternetChecksum(bytes) != 0) {
    return std::nullopt;
  }
  ByteReader reader(bytes);
  IcmpMessage msg;
  uint8_t type = reader.ReadU8();
  msg.code = reader.ReadU8();
  reader.ReadU16();  // Checksum (verified above).
  switch (type) {
    case static_cast<uint8_t>(IcmpType::kEchoRequest):
    case static_cast<uint8_t>(IcmpType::kEchoReply):
      msg.type = static_cast<IcmpType>(type);
      msg.identifier = reader.ReadU16();
      msg.sequence = reader.ReadU16();
      msg.echo_data = reader.PeekRemaining();
      break;
    case static_cast<uint8_t>(IcmpType::kMaskRequest):
    case static_cast<uint8_t>(IcmpType::kMaskReply):
      msg.type = static_cast<IcmpType>(type);
      msg.identifier = reader.ReadU16();
      msg.sequence = reader.ReadU16();
      msg.address_mask = reader.ReadU32();
      break;
    case static_cast<uint8_t>(IcmpType::kTimeExceeded):
    case static_cast<uint8_t>(IcmpType::kDestUnreachable):
      msg.type = static_cast<IcmpType>(type);
      reader.ReadU32();  // Unused field.
      msg.original_datagram = reader.PeekRemaining();
      break;
    default:
      return std::nullopt;
  }
  if (!reader.ok()) {
    return std::nullopt;
  }
  return msg;
}

IcmpMessage IcmpMessage::EchoRequest(uint16_t id, uint16_t seq, ByteBuffer data) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.identifier = id;
  msg.sequence = seq;
  msg.echo_data = std::move(data);
  return msg;
}

IcmpMessage IcmpMessage::EchoReply(uint16_t id, uint16_t seq, ByteBuffer data) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoReply;
  msg.identifier = id;
  msg.sequence = seq;
  msg.echo_data = std::move(data);
  return msg;
}

IcmpMessage IcmpMessage::MaskRequest(uint16_t id, uint16_t seq) {
  IcmpMessage msg;
  msg.type = IcmpType::kMaskRequest;
  msg.identifier = id;
  msg.sequence = seq;
  return msg;
}

IcmpMessage IcmpMessage::MaskReply(uint16_t id, uint16_t seq, SubnetMask mask) {
  IcmpMessage msg;
  msg.type = IcmpType::kMaskReply;
  msg.identifier = id;
  msg.sequence = seq;
  msg.address_mask = mask.value();
  return msg;
}

IcmpMessage IcmpMessage::TimeExceeded(ByteBuffer original) {
  IcmpMessage msg;
  msg.type = IcmpType::kTimeExceeded;
  msg.original_datagram = std::move(original);
  return msg;
}

IcmpMessage IcmpMessage::DestUnreachable(IcmpUnreachableCode unreachable_code,
                                         ByteBuffer original) {
  IcmpMessage msg;
  msg.type = IcmpType::kDestUnreachable;
  msg.code = static_cast<uint8_t>(unreachable_code);
  msg.original_datagram = std::move(original);
  return msg;
}

std::optional<UdpPorts> QuotedUdpPorts(const ByteBuffer& quote) {
  if (quote.size() < Ipv4Packet::kHeaderLength + 4 || quote[0] != 0x45 ||
      quote[9] != static_cast<uint8_t>(IpProtocol::kUdp)) {
    return std::nullopt;
  }
  ByteReader reader(quote.data() + Ipv4Packet::kHeaderLength, 4);
  UdpPorts ports;
  ports.src = reader.ReadU16();
  ports.dst = reader.ReadU16();
  return ports;
}

}  // namespace fremont
