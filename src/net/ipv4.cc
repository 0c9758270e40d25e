#include "src/net/ipv4.h"

namespace fremont {

ByteBuffer Ipv4Packet::Encode() const {
  ByteWriter writer;
  writer.Reserve(kHeaderLength + payload.size());
  writer.WriteU8(0x45);  // Version 4, IHL 5.
  writer.WriteU8(tos);
  writer.WriteU16(static_cast<uint16_t>(kHeaderLength + payload.size()));
  writer.WriteU16(identification);
  writer.WriteU16(0);  // Flags + fragment offset: never fragmented in the sim.
  writer.WriteU8(ttl);
  writer.WriteU8(static_cast<uint8_t>(protocol));
  const size_t checksum_offset = writer.size();
  writer.WriteU16(0);
  writer.WriteU32(src.value());
  writer.WriteU32(dst.value());
  writer.PatchU16(checksum_offset, InternetChecksum(writer.buffer().data(), kHeaderLength));
  writer.WriteBytes(payload);
  return writer.TakeBuffer();
}

std::optional<Ipv4Packet> Ipv4Packet::Decode(const ByteBuffer& bytes) {
  if (bytes.size() < kHeaderLength) {
    return std::nullopt;
  }
  if (InternetChecksum(bytes.data(), kHeaderLength) != 0) {
    return std::nullopt;
  }
  ByteReader reader(bytes);
  uint8_t version_ihl = reader.ReadU8();
  if (version_ihl != 0x45) {
    return std::nullopt;
  }
  Ipv4Packet packet;
  packet.tos = reader.ReadU8();
  uint16_t total_length = reader.ReadU16();
  packet.identification = reader.ReadU16();
  reader.ReadU16();  // Flags + fragment offset.
  packet.ttl = reader.ReadU8();
  packet.protocol = static_cast<IpProtocol>(reader.ReadU8());
  reader.ReadU16();  // Checksum (already verified).
  packet.src = Ipv4Address(reader.ReadU32());
  packet.dst = Ipv4Address(reader.ReadU32());
  if (!reader.ok() || total_length < kHeaderLength || total_length > bytes.size()) {
    return std::nullopt;
  }
  packet.payload = reader.ReadBytes(total_length - kHeaderLength);
  if (!reader.ok()) {
    return std::nullopt;
  }
  return packet;
}

}  // namespace fremont
