#include "src/net/rip.h"

namespace fremont {
namespace {

constexpr uint8_t kRipVersion1 = 1;
constexpr uint16_t kAddressFamilyIp = 2;
constexpr size_t kHeaderLength = 4;
constexpr size_t kEntryLength = 20;

}  // namespace

ByteBuffer RipPacket::Encode() const {
  const size_t count = entries.size() < kMaxEntries ? entries.size() : kMaxEntries;
  ByteWriter writer;
  writer.Reserve(kHeaderLength + count * kEntryLength);
  writer.WriteU8(static_cast<uint8_t>(command));
  writer.WriteU8(kRipVersion1);
  writer.WriteU16(0);  // Must be zero.
  for (size_t i = 0; i < count; ++i) {
    writer.WriteU16(kAddressFamilyIp);
    writer.WriteU16(0);
    writer.WriteU32(entries[i].address.value());
    writer.WriteU32(0);  // Must be zero (RIPv1).
    writer.WriteU32(0);  // Must be zero (RIPv1).
    writer.WriteU32(entries[i].metric);
  }
  return writer.TakeBuffer();
}

std::optional<RipPacket> RipPacket::Decode(const ByteBuffer& bytes) {
  RipPacket packet;
  if (!DecodeInto(bytes, &packet)) {
    return std::nullopt;
  }
  return packet;
}

bool RipPacket::DecodeInto(const ByteBuffer& bytes, RipPacket* out) {
  ByteReader reader(bytes);
  uint8_t command = reader.ReadU8();
  uint8_t version = reader.ReadU8();
  reader.ReadU16();
  if (!reader.ok() || version != kRipVersion1) {
    return false;
  }
  if (command != static_cast<uint8_t>(RipCommand::kRequest) &&
      command != static_cast<uint8_t>(RipCommand::kResponse) &&
      command != static_cast<uint8_t>(RipCommand::kPoll)) {
    return false;
  }
  out->command = static_cast<RipCommand>(command);
  out->entries.clear();
  out->entries.reserve(reader.remaining() / kEntryLength);
  while (reader.remaining() >= kEntryLength) {
    uint16_t family = reader.ReadU16();
    reader.ReadU16();
    uint32_t address = reader.ReadU32();
    reader.ReadU32();
    reader.ReadU32();
    uint32_t metric = reader.ReadU32();
    if (!reader.ok()) {
      return false;
    }
    if (family != kAddressFamilyIp) {
      continue;  // Skip non-IP families, as routed does.
    }
    out->entries.push_back(RipEntry{Ipv4Address(address), metric});
  }
  return reader.remaining() == 0;  // Anything left is trailing garbage.
}

}  // namespace fremont
