// Routing Information Protocol version 1 codec (RFC 1058).
//
// RIPv1 carries no subnet masks; the receiver classifies each advertised
// address as a network, subnet, or host route by comparing against its own
// interface mask — exactly the inference Fremont's RIPwatch module performs.

#ifndef SRC_NET_RIP_H_
#define SRC_NET_RIP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/ipv4_address.h"
#include "src/util/bytes.h"

namespace fremont {

enum class RipCommand : uint8_t {
  kRequest = 1,
  kResponse = 2,
  kPoll = 5,  // Non-standard but implemented by routed; the paper's future work.
};

inline constexpr uint16_t kRipMetricInfinity = 16;

struct RipEntry {
  Ipv4Address address;
  uint32_t metric = 1;
};

struct RipPacket {
  RipCommand command = RipCommand::kResponse;
  std::vector<RipEntry> entries;

  // RFC 1058 caps a packet at 25 routes; larger advertisements are split by
  // the sender. Encode() asserts the cap via truncation.
  static constexpr size_t kMaxEntries = 25;

  ByteBuffer Encode() const;
  static std::optional<RipPacket> Decode(const ByteBuffer& bytes);
  // Decode into `out`, reusing its entry storage: a receiver that keeps one
  // packet grows no vector per datagram. Returns false on a malformed
  // datagram, leaving `out` unspecified. Decode() is this on a fresh packet.
  static bool DecodeInto(const ByteBuffer& bytes, RipPacket* out);
};

}  // namespace fremont

#endif  // SRC_NET_RIP_H_
