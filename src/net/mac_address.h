// 48-bit Medium Access Control (Ethernet) addresses.

#ifndef SRC_NET_MAC_ADDRESS_H_
#define SRC_NET_MAC_ADDRESS_H_

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fremont {

class MacAddress {
 public:
  constexpr MacAddress() = default;
  explicit constexpr MacAddress(std::array<uint8_t, 6> octets) : octets_(octets) {}
  constexpr MacAddress(uint8_t a, uint8_t b, uint8_t c, uint8_t d, uint8_t e, uint8_t f)
      : octets_{a, b, c, d, e, f} {}

  // The all-ones Ethernet broadcast address.
  static constexpr MacAddress Broadcast() {
    return MacAddress(0xff, 0xff, 0xff, 0xff, 0xff, 0xff);
  }
  // The all-zero address, used as "unknown" in ARP request target fields.
  static constexpr MacAddress Zero() { return MacAddress(); }

  // Synthesizes a locally-administered unicast address from an index; the
  // topology builder uses this together with vendor OUIs.
  static MacAddress FromIndex(uint64_t index);
  // Builds an address under a specific 3-byte vendor OUI.
  static MacAddress FromOui(uint32_t oui, uint32_t serial);

  // Parses "aa:bb:cc:dd:ee:ff" (case-insensitive). Returns nullopt on error.
  static std::optional<MacAddress> Parse(std::string_view text);

  std::string ToString() const;

  constexpr const std::array<uint8_t, 6>& octets() const { return octets_; }
  // The 3-byte Organizationally Unique Identifier prefix.
  constexpr uint32_t Oui() const {
    return static_cast<uint32_t>(octets_[0]) << 16 | static_cast<uint32_t>(octets_[1]) << 8 |
           octets_[2];
  }

  constexpr bool IsBroadcast() const { return *this == Broadcast(); }
  constexpr bool IsZero() const { return *this == MacAddress(); }
  constexpr bool IsMulticast() const { return (octets_[0] & 0x01) != 0; }

  // Equality compares the packed value: segments test it on every delivery,
  // and the defaulted form calls memcmp. Ordering stays lexicographic by
  // octet, which the packed (big-endian) value would order the same way.
  constexpr bool operator==(const MacAddress& other) const { return ToU64() == other.ToU64(); }
  constexpr auto operator<=>(const MacAddress&) const = default;

  // Packs into a uint64 (high 16 bits zero) for hashing and index keys.
  constexpr uint64_t ToU64() const {
    uint64_t v = 0;
    for (uint8_t o : octets_) {
      v = v << 8 | o;
    }
    return v;
  }

 private:
  std::array<uint8_t, 6> octets_{};
};

}  // namespace fremont

template <>
struct std::hash<fremont::MacAddress> {
  size_t operator()(const fremont::MacAddress& mac) const noexcept {
    return std::hash<uint64_t>()(mac.ToU64());
  }
};

#endif  // SRC_NET_MAC_ADDRESS_H_
