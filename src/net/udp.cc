#include "src/net/udp.h"

namespace fremont {

ByteBuffer UdpDatagram::Encode() const {
  ByteWriter writer;
  writer.Reserve(kHeaderLength + payload.size());
  writer.WriteU16(src_port);
  writer.WriteU16(dst_port);
  writer.WriteU16(static_cast<uint16_t>(kHeaderLength + payload.size()));
  writer.WriteU16(0);  // Checksum zero = not computed (RFC 768 permits this).
  writer.WriteBytes(payload);
  return writer.TakeBuffer();
}

std::optional<UdpDatagram> UdpDatagram::Decode(const ByteBuffer& bytes) {
  ByteReader reader(bytes);
  UdpDatagram datagram;
  datagram.src_port = reader.ReadU16();
  datagram.dst_port = reader.ReadU16();
  uint16_t length = reader.ReadU16();
  reader.ReadU16();  // Checksum, ignored.
  if (!reader.ok() || length < kHeaderLength || length > bytes.size()) {
    return std::nullopt;
  }
  datagram.payload = reader.ReadBytes(length - kHeaderLength);
  if (!reader.ok()) {
    return std::nullopt;
  }
  return datagram;
}

}  // namespace fremont
