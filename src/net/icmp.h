// ICMP message codec (RFC 792 + RFC 950 address mask extension).
//
// Fremont's four ICMP Explorer Modules use: Echo Request/Reply (sequential
// and broadcast ping), Address Mask Request/Reply (subnet mask discovery),
// Time Exceeded and Destination Unreachable (traceroute).

#ifndef SRC_NET_ICMP_H_
#define SRC_NET_ICMP_H_

#include <cstdint>
#include <optional>

#include "src/net/ipv4_address.h"
#include "src/util/bytes.h"

namespace fremont {

enum class IcmpType : uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
  kMaskRequest = 17,
  kMaskReply = 18,
};

// Destination Unreachable codes Fremont interprets.
enum class IcmpUnreachableCode : uint8_t {
  kNetUnreachable = 0,
  kHostUnreachable = 1,
  kProtocolUnreachable = 2,
  kPortUnreachable = 3,
};

struct IcmpMessage {
  IcmpType type = IcmpType::kEchoRequest;
  uint8_t code = 0;

  // Echo and Mask messages carry an identifier/sequence pair.
  uint16_t identifier = 0;
  uint16_t sequence = 0;

  // Mask Reply/Request: the address mask (raw 32 bits; may be invalid —
  // the analysis programs flag non-prefix masks).
  uint32_t address_mask = 0;

  // Time Exceeded / Dest Unreachable: the offending packet's IP header plus
  // the first 8 payload bytes, per RFC 792. Traceroute and ServiceProbe
  // match replies to probes by its UDP ports (QuotedUdpPorts below).
  ByteBuffer original_datagram;

  // Echo payload data.
  ByteBuffer echo_data;

  ByteBuffer Encode() const;
  static std::optional<IcmpMessage> Decode(const ByteBuffer& bytes);

  // Convenience constructors.
  static IcmpMessage EchoRequest(uint16_t id, uint16_t seq, ByteBuffer data = {});
  static IcmpMessage EchoReply(uint16_t id, uint16_t seq, ByteBuffer data = {});
  static IcmpMessage MaskRequest(uint16_t id, uint16_t seq);
  static IcmpMessage MaskReply(uint16_t id, uint16_t seq, SubnetMask mask);
  static IcmpMessage TimeExceeded(ByteBuffer original);
  static IcmpMessage DestUnreachable(IcmpUnreachableCode code, ByteBuffer original);
};

struct UdpPorts {
  uint16_t src = 0;
  uint16_t dst = 0;
};

// The UDP ports of the datagram an ICMP error quotes. The quote is cut to
// the IP header plus 8 bytes (RFC 792), so its IP total length exceeds the
// bytes quoted for any datagram that carried a payload; the fields are read
// by position instead of through Ipv4Packet::Decode. nullopt unless the
// quote is an option-free IPv4 header of a UDP datagram followed by both
// ports.
std::optional<UdpPorts> QuotedUdpPorts(const ByteBuffer& quote);

}  // namespace fremont

#endif  // SRC_NET_ICMP_H_
