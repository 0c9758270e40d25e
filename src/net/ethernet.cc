#include "src/net/ethernet.h"

namespace fremont {
namespace {

constexpr size_t kHeaderLength = 14;  // Destination, source, EtherType.

}  // namespace

ByteBuffer EthernetFrame::Encode() const {
  ByteWriter writer;
  writer.Reserve(kHeaderLength + payload.size());
  writer.WriteBytes(dst.octets().data(), 6);
  writer.WriteBytes(src.octets().data(), 6);
  writer.WriteU16(static_cast<uint16_t>(ethertype));
  writer.WriteBytes(payload);
  return writer.TakeBuffer();
}

std::optional<EthernetFrame> EthernetFrame::Decode(const ByteBuffer& bytes) {
  ByteReader reader(bytes);
  EthernetFrame frame;
  std::array<uint8_t, 6> dst;
  reader.ReadInto(dst.data(), dst.size());
  std::array<uint8_t, 6> src;
  reader.ReadInto(src.data(), src.size());
  uint16_t ethertype = reader.ReadU16();
  if (!reader.ok()) {
    return std::nullopt;
  }
  frame.dst = MacAddress(dst);
  frame.src = MacAddress(src);
  frame.ethertype = static_cast<EtherType>(ethertype);
  frame.payload = reader.PeekRemaining();
  return frame;
}

}  // namespace fremont
