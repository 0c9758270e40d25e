// Tests for MAC/IPv4 addressing, subnet masks, subnets, and OUI lookup.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/net/ipv4_address.h"
#include "src/net/mac_address.h"
#include "src/net/oui.h"
#include "src/util/rng.h"

namespace fremont {
namespace {

TEST(MacAddressTest, ParseAndToString) {
  auto mac = MacAddress::Parse("08:00:20:1a:2b:3c");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->ToString(), "08:00:20:1a:2b:3c");
  EXPECT_EQ(mac->Oui(), kOuiSun);
}

TEST(MacAddressTest, ParseAcceptsUppercaseAndShortOctets) {
  auto mac = MacAddress::Parse("8:0:20:A:B:C");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->ToString(), "08:00:20:0a:0b:0c");
}

TEST(MacAddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(MacAddress::Parse("").has_value());
  EXPECT_FALSE(MacAddress::Parse("01:02:03:04:05").has_value());
  EXPECT_FALSE(MacAddress::Parse("01:02:03:04:05:zz").has_value());
  EXPECT_FALSE(MacAddress::Parse("01:02:03:04:05:06:07").has_value());
  EXPECT_FALSE(MacAddress::Parse("001:02:03:04:05:06").has_value());
}

TEST(MacAddressTest, SpecialAddresses) {
  EXPECT_TRUE(MacAddress::Broadcast().IsBroadcast());
  EXPECT_TRUE(MacAddress::Broadcast().IsMulticast());
  EXPECT_TRUE(MacAddress::Zero().IsZero());
  EXPECT_FALSE(MacAddress::FromOui(kOuiSun, 1).IsMulticast());
  // Locally-administered synthetic addresses are unicast.
  EXPECT_FALSE(MacAddress::FromIndex(7).IsMulticast());
}

TEST(MacAddressTest, OrderingAndPacking) {
  const MacAddress a = MacAddress::FromOui(kOuiSun, 1);
  const MacAddress b = MacAddress::FromOui(kOuiSun, 2);
  EXPECT_LT(a, b);
  EXPECT_EQ(a.ToU64() + 1, b.ToU64());
}

// The packed value and its hash, checked against a plain fold of the octets
// (first octet highest), so hash-map orders keyed on MACs cannot move.
void ExpectPackedMatchesFold(const MacAddress& mac) {
  uint64_t fold = 0;
  for (uint8_t octet : mac.octets()) {
    fold = fold << 8 | octet;
  }
  EXPECT_EQ(mac.ToU64(), fold) << mac.ToString();
  EXPECT_EQ(std::hash<MacAddress>()(mac), std::hash<uint64_t>()(fold)) << mac.ToString();
}

// MacAddress's == compares the packed value while <=> stays the defaulted
// octet-wise ordering; all three operators must agree with the octets.
void ExpectComparisonsAgree(const MacAddress& a, const MacAddress& b) {
  ExpectPackedMatchesFold(a);
  ExpectPackedMatchesFold(b);
  const bool same_octets = a.octets() == b.octets();
  const bool octets_less = std::lexicographical_compare(a.octets().begin(), a.octets().end(),
                                                        b.octets().begin(), b.octets().end());
  EXPECT_EQ(a == b, same_octets) << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ(a != b, !same_octets) << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ((a <=> b) == 0, same_octets) << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ((a <=> b) < 0, octets_less) << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ(a < b, a.ToU64() < b.ToU64()) << a.ToString() << " vs " << b.ToString();
}

TEST(MacAddressTest, EqualityAndOrderingAgreeOnSpecialAndRandomPairs) {
  const std::vector<MacAddress> specials = {
      MacAddress::Broadcast(),
      MacAddress::Zero(),
      MacAddress(0x01, 0x00, 0x5e, 0x00, 0x00, 0x01),  // IPv4 multicast.
      MacAddress(0xff, 0xff, 0xff, 0xff, 0xff, 0xfe),
      MacAddress(0x00, 0x00, 0x00, 0x00, 0x00, 0x01),
      MacAddress(0x80, 0x00, 0x00, 0x00, 0x00, 0x00),
      MacAddress::FromOui(kOuiSun, 1),
      MacAddress(0x01, 0x23, 0x45, 0x67, 0x89, 0xab),  // Every octet distinct.
      MacAddress(0x00, 0x00, 0x00, 0x00, 0x00, 0xff),
      MacAddress(0xff, 0x00, 0x00, 0x00, 0x00, 0x00),
  };
  EXPECT_EQ(MacAddress::Broadcast().ToU64(), 0xffffffffffffu);
  EXPECT_EQ(MacAddress(0x01, 0x23, 0x45, 0x67, 0x89, 0xab).ToU64(), 0x0123456789abu);
  for (const MacAddress& a : specials) {
    for (const MacAddress& b : specials) {
      ExpectComparisonsAgree(a, b);
    }
  }

  Rng rng(1993);
  auto random_mac = [&rng]() {
    std::array<uint8_t, 6> octets;
    for (uint8_t& octet : octets) {
      octet = static_cast<uint8_t>(rng.Uniform(0, 255));
    }
    return MacAddress(octets);
  };
  for (int i = 0; i < 5000; ++i) {
    const MacAddress a = random_mac();
    // Equal pairs and pairs differing in one octet are where a wrong
    // comparison would hide, so most pairs are derived from `a`.
    std::array<uint8_t, 6> octets = a.octets();
    switch (rng.Uniform(0, 2)) {
      case 0:
        break;
      case 1:
        octets[static_cast<size_t>(rng.Uniform(0, 5))] ^=
            static_cast<uint8_t>(1u << rng.Uniform(0, 7));
        break;
      default:
        octets = random_mac().octets();
        break;
    }
    ExpectComparisonsAgree(a, MacAddress(octets));
    ExpectComparisonsAgree(a, specials[static_cast<size_t>(
                                  rng.Uniform(0, static_cast<int64_t>(specials.size()) - 1))]);
  }
}

TEST(OuiTest, VendorLookup) {
  EXPECT_EQ(LookupVendor(MacAddress::FromOui(kOuiSun, 42)).value(), "Sun Microsystems");
  EXPECT_EQ(LookupVendor(MacAddress::FromOui(kOuiCisco, 1)).value(), "cisco Systems");
  EXPECT_FALSE(LookupVendor(MacAddress::FromIndex(3)).has_value());
  EXPECT_FALSE(KnownOuis().empty());
}

TEST(Ipv4AddressTest, ParseAndToString) {
  auto ip = Ipv4Address::Parse("128.138.238.18");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->ToString(), "128.138.238.18");
  EXPECT_EQ(ip->value(), 0x808aee12u);
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.256").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.1234").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1..3.4").has_value());
}

TEST(Ipv4AddressTest, AddressClasses) {
  EXPECT_EQ(Ipv4Address(10, 0, 0, 1).AddressClass(), 'A');
  EXPECT_EQ(Ipv4Address(128, 138, 0, 1).AddressClass(), 'B');
  EXPECT_EQ(Ipv4Address(192, 52, 106, 1).AddressClass(), 'C');
  EXPECT_EQ(Ipv4Address(224, 0, 0, 1).AddressClass(), 'D');
  EXPECT_EQ(Ipv4Address(245, 0, 0, 1).AddressClass(), 'E');
  EXPECT_EQ(Ipv4Address(10, 0, 0, 1).NaturalMask().PrefixLength(), 8);
  EXPECT_EQ(Ipv4Address(128, 138, 0, 1).NaturalMask().PrefixLength(), 16);
  EXPECT_EQ(Ipv4Address(192, 52, 106, 1).NaturalMask().PrefixLength(), 24);
}

TEST(SubnetMaskTest, PrefixConstruction) {
  EXPECT_EQ(SubnetMask::FromPrefixLength(0).value(), 0u);
  EXPECT_EQ(SubnetMask::FromPrefixLength(16).value(), 0xffff0000u);
  EXPECT_EQ(SubnetMask::FromPrefixLength(24).ToString(), "255.255.255.0");
  EXPECT_EQ(SubnetMask::FromPrefixLength(32).value(), 0xffffffffu);
  EXPECT_EQ(SubnetMask::FromPrefixLength(26).PrefixLength(), 26);
}

TEST(SubnetMaskTest, RejectsNonContiguous) {
  EXPECT_TRUE(SubnetMask::FromValue(0xffffff00u).has_value());
  EXPECT_FALSE(SubnetMask::FromValue(0xff00ff00u).has_value());
  EXPECT_FALSE(SubnetMask::FromValue(0x000000ffu).has_value());
  EXPECT_TRUE(SubnetMask::Parse("255.255.240.0").has_value());
  EXPECT_FALSE(SubnetMask::Parse("255.0.255.0").has_value());
}

TEST(SubnetTest, MembershipAndSpecialAddresses) {
  auto subnet = Subnet::Parse("128.138.238.0/24");
  ASSERT_TRUE(subnet.has_value());
  EXPECT_TRUE(subnet->Contains(Ipv4Address(128, 138, 238, 17)));
  EXPECT_FALSE(subnet->Contains(Ipv4Address(128, 138, 239, 17)));
  EXPECT_EQ(subnet->BroadcastAddress(), Ipv4Address(128, 138, 238, 255));
  EXPECT_EQ(subnet->HostZero(), Ipv4Address(128, 138, 238, 0));
  EXPECT_EQ(subnet->HostAt(1), Ipv4Address(128, 138, 238, 1));
  EXPECT_EQ(subnet->HostCapacity(), 254u);
  EXPECT_EQ(subnet->ToString(), "128.138.238.0/24");
}

TEST(SubnetTest, NormalizesHostBits) {
  Subnet subnet(Ipv4Address(128, 138, 238, 77), SubnetMask::FromPrefixLength(24));
  EXPECT_EQ(subnet.network(), Ipv4Address(128, 138, 238, 0));
}

TEST(SubnetTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Subnet::Parse("128.138.0.0").has_value());
  EXPECT_FALSE(Subnet::Parse("128.138.0.0/33").has_value());
  EXPECT_FALSE(Subnet::Parse("bogus/24").has_value());
}

TEST(SubnetTest, HostCapacityEdgeCases) {
  EXPECT_EQ(Subnet(Ipv4Address(1, 2, 3, 4), SubnetMask::FromPrefixLength(32)).HostCapacity(), 0u);
  EXPECT_EQ(Subnet(Ipv4Address(1, 2, 3, 4), SubnetMask::FromPrefixLength(31)).HostCapacity(), 2u);
  EXPECT_EQ(Subnet(Ipv4Address(1, 2, 3, 4), SubnetMask::FromPrefixLength(30)).HostCapacity(), 2u);
  EXPECT_EQ(Subnet(Ipv4Address(128, 138, 0, 0), SubnetMask::FromPrefixLength(16)).HostCapacity(),
            65534u);
}

}  // namespace
}  // namespace fremont
