// Tests for the longest-prefix-match routing table with RIP-style metrics.

#include "src/sim/routing_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/segment.h"
#include "src/util/rng.h"

namespace fremont {
namespace {

Subnet Net(const char* text) { return *Subnet::Parse(text); }

class RoutingTableTest : public ::testing::Test {
 protected:
  RoutingTable table_;
  Interface iface_a_;
  Interface iface_b_;
  SimTime t0_;
};

TEST_F(RoutingTableTest, ConnectedRouteLookup) {
  table_.AddConnected(Net("10.0.1.0/24"), &iface_a_);
  auto route = table_.Lookup(Ipv4Address(10, 0, 1, 5));
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->connected);
  EXPECT_EQ(route->out_iface, &iface_a_);
  EXPECT_FALSE(table_.Lookup(Ipv4Address(10, 0, 2, 5)).has_value());
}

TEST_F(RoutingTableTest, LongestPrefixWins) {
  table_.AddConnected(Net("10.0.0.0/16"), &iface_a_);
  table_.AddConnected(Net("10.0.5.0/24"), &iface_b_);
  auto route = table_.Lookup(Ipv4Address(10, 0, 5, 9));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->out_iface, &iface_b_);
  route = table_.Lookup(Ipv4Address(10, 0, 6, 9));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->out_iface, &iface_a_);
}

TEST_F(RoutingTableTest, BetterMetricDisplacesWorse) {
  EXPECT_TRUE(table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 5, t0_));
  EXPECT_FALSE(table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 2), &iface_b_, 7, t0_));
  auto route = table_.Lookup(Ipv4Address(10, 1, 0, 1));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->gateway, Ipv4Address(10, 0, 0, 1));

  EXPECT_TRUE(table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 2), &iface_b_, 3, t0_));
  route = table_.Lookup(Ipv4Address(10, 1, 0, 1));
  EXPECT_EQ(route->gateway, Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(route->metric, 3u);
}

TEST_F(RoutingTableTest, SameGatewayUpdateAlwaysApplies) {
  table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 3, t0_);
  // The same gateway now reports a worse metric (e.g. its own path changed):
  // accepted, per distance-vector rules.
  EXPECT_TRUE(table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 9, t0_));
  EXPECT_EQ(table_.Lookup(Ipv4Address(10, 1, 0, 1))->metric, 9u);
}

TEST_F(RoutingTableTest, ConnectedNeverDisplaced) {
  table_.AddConnected(Net("10.0.1.0/24"), &iface_a_);
  EXPECT_FALSE(table_.Learn(Net("10.0.1.0/24"), Ipv4Address(9, 9, 9, 9), &iface_b_, 1, t0_));
  EXPECT_TRUE(table_.Lookup(Ipv4Address(10, 0, 1, 1))->connected);
}

TEST_F(RoutingTableTest, InfinityRoutesUnreachable) {
  EXPECT_FALSE(
      table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 16, t0_));
  EXPECT_FALSE(table_.Lookup(Ipv4Address(10, 1, 0, 1)).has_value());

  // Poisoning an existing route makes it unreachable.
  table_.Learn(Net("10.2.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 2, t0_);
  table_.Learn(Net("10.2.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 16, t0_);
  EXPECT_FALSE(table_.Lookup(Ipv4Address(10, 2, 0, 1)).has_value());
}

TEST_F(RoutingTableTest, ExpiryMarksStaleRoutes) {
  table_.AddConnected(Net("10.0.1.0/24"), &iface_a_);
  table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 2, t0_);
  const SimTime later = t0_ + Duration::Minutes(10);
  EXPECT_EQ(table_.ExpireStale(later, Duration::Seconds(180)), 1);
  EXPECT_FALSE(table_.Lookup(Ipv4Address(10, 1, 0, 1)).has_value());
  // Connected routes never expire.
  EXPECT_TRUE(table_.Lookup(Ipv4Address(10, 0, 1, 1)).has_value());
  // Refreshed routes survive.
  table_.Learn(Net("10.3.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 2, later);
  EXPECT_EQ(table_.ExpireStale(later + Duration::Seconds(60), Duration::Seconds(180)), 0);
}

TEST_F(RoutingTableTest, AddConnectedTakesOverLearnedRoute) {
  // The subnet is learned before it is attached: the connected route takes
  // over the learned entry instead of sitting beside it.
  EXPECT_TRUE(table_.Learn(Net("10.0.0.0/24"), Ipv4Address(10, 0, 0, 2), &iface_b_, 2, t0_));
  table_.AddConnected(Net("10.0.0.0/24"), &iface_a_);
  ASSERT_EQ(table_.entries().size(), 1u);
  EXPECT_TRUE(table_.entries()[0].connected);

  // An equal-metric route from another gateway does not displace it.
  EXPECT_FALSE(table_.Learn(Net("10.0.0.0/24"), Ipv4Address(10, 0, 0, 3), &iface_b_, 1, t0_));
  auto route = table_.Lookup(Ipv4Address(10, 0, 0, 9));
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->connected);
  EXPECT_EQ(route->out_iface, &iface_a_);
  EXPECT_TRUE(route->gateway.IsZero());
  EXPECT_EQ(route->metric, 1u);
}

TEST_F(RoutingTableTest, VersionMovesWithAdvertisedState) {
  const Subnet far = Net("10.1.0.0/24");
  const Ipv4Address gw(10, 0, 0, 1);
  uint64_t version = table_.version();
  auto moved = [&]() {
    const bool changed = table_.version() != version;
    version = table_.version();
    return changed;
  };

  table_.Learn(far, gw, &iface_a_, 3, t0_);
  EXPECT_TRUE(moved()) << "new entry";
  table_.Learn(far, gw, &iface_a_, 3, t0_ + Duration::Seconds(30));
  EXPECT_FALSE(moved()) << "refresh only";
  table_.Learn(far, gw, &iface_a_, 5, t0_ + Duration::Seconds(30));
  EXPECT_TRUE(moved()) << "metric";
  table_.Learn(far, gw, &iface_b_, 5, t0_ + Duration::Seconds(30));
  EXPECT_TRUE(moved()) << "out-interface";
  table_.Learn(far, Ipv4Address(10, 0, 0, 2), &iface_a_, 9, t0_ + Duration::Seconds(30));
  EXPECT_FALSE(moved()) << "worse route from another gateway is ignored";
  EXPECT_EQ(table_.ExpireStale(t0_ + Duration::Seconds(60), Duration::Seconds(180)), 0);
  EXPECT_FALSE(moved()) << "nothing expired";
  EXPECT_EQ(table_.ExpireStale(t0_ + Duration::Minutes(10), Duration::Seconds(180)), 1);
  EXPECT_TRUE(moved()) << "expiry";
  table_.AddConnected(Net("10.0.1.0/24"), &iface_a_);
  EXPECT_TRUE(moved()) << "connected route";
}

// The linear-scan table the index replaced, kept as the reference the indexed
// table must agree with after every step.
class LinearTable {
 public:
  void AddConnected(Subnet subnet, Interface* iface) {
    for (auto& entry : entries) {
      if (entry.destination == subnet && entry.connected) {
        entry.out_iface = iface;
        return;
      }
    }
    RouteEntry entry;
    entry.destination = subnet;
    entry.out_iface = iface;
    entry.metric = 1;
    entry.connected = true;
    entries.push_back(entry);
  }

  bool Learn(Subnet subnet, Ipv4Address gateway, Interface* iface, uint32_t metric, SimTime now) {
    metric = std::min<uint32_t>(metric, kRipMetricInfinity);
    for (auto& entry : entries) {
      if (entry.destination != subnet) {
        continue;
      }
      if (entry.connected) {
        return false;
      }
      if (entry.gateway == gateway) {
        bool changed = entry.metric != metric || entry.out_iface != iface;
        entry.metric = metric;
        entry.out_iface = iface;
        entry.last_refreshed = now;
        return changed;
      }
      if (metric < entry.metric) {
        entry.gateway = gateway;
        entry.out_iface = iface;
        entry.metric = metric;
        entry.last_refreshed = now;
        return true;
      }
      return false;
    }
    if (metric >= kRipMetricInfinity) {
      return false;
    }
    RouteEntry entry;
    entry.destination = subnet;
    entry.gateway = gateway;
    entry.out_iface = iface;
    entry.metric = metric;
    entry.connected = false;
    entry.last_refreshed = now;
    entries.push_back(entry);
    return true;
  }

  std::optional<RouteEntry> Lookup(Ipv4Address dst) const {
    const RouteEntry* best = nullptr;
    for (const auto& entry : entries) {
      if (!entry.destination.Contains(dst) || entry.metric >= kRipMetricInfinity) {
        continue;
      }
      if (best == nullptr) {
        best = &entry;
        continue;
      }
      const int best_len = best->destination.mask().PrefixLength();
      const int entry_len = entry.destination.mask().PrefixLength();
      if (entry_len > best_len || (entry_len == best_len && entry.metric < best->metric)) {
        best = &entry;
      }
    }
    if (best == nullptr) {
      return std::nullopt;
    }
    return *best;
  }

  int ExpireStale(SimTime now, Duration max_age) {
    int expired = 0;
    for (auto& entry : entries) {
      if (!entry.connected && entry.metric < kRipMetricInfinity &&
          now - entry.last_refreshed > max_age) {
        entry.metric = kRipMetricInfinity;
        ++expired;
      }
    }
    return expired;
  }

  std::vector<RouteEntry> entries;
};

::testing::AssertionResult SameRoute(const RouteEntry& a, const RouteEntry& b) {
  if (a.destination == b.destination && a.gateway == b.gateway && a.out_iface == b.out_iface &&
      a.metric == b.metric && a.connected == b.connected &&
      a.last_refreshed == b.last_refreshed) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a.destination.ToString() << " via " << a.gateway.ToString() << " metric " << a.metric
         << (a.connected ? " connected" : "") << " vs " << b.destination.ToString() << " via "
         << b.gateway.ToString() << " metric " << b.metric << (b.connected ? " connected" : "");
}

::testing::AssertionResult SameLookup(const std::optional<RouteEntry>& indexed,
                                      const std::optional<RouteEntry>& linear) {
  if (indexed.has_value() != linear.has_value()) {
    return ::testing::AssertionFailure() << "indexed " << (indexed ? "found" : "missed")
                                         << ", linear " << (linear ? "found" : "missed");
  }
  return indexed.has_value() ? SameRoute(*indexed, *linear) : ::testing::AssertionSuccess();
}

class RoutingTablePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoutingTablePropertyTest, IndexedTableMatchesLinearScan) {
  // Nested destinations at /8, /16, /24 and /32, plus a run of sibling /24s
  // that differ only in their network bits.
  std::vector<Subnet> pool = {Net("10.0.0.0/8"),    Net("11.0.0.0/8"),   Net("10.1.0.0/16"),
                              Net("10.2.0.0/16"),   Net("11.5.0.0/16"),  Net("10.1.1.0/24"),
                              Net("10.2.7.0/24"),   Net("11.5.5.0/24"),  Net("10.1.1.5/32"),
                              Net("10.1.2.9/32"),   Net("11.5.5.5/32"),  Net("10.2.7.255/32")};
  for (int third = 2; third < 60; ++third) {
    pool.push_back(Subnet(Ipv4Address(10, 1, static_cast<uint8_t>(third), 0),
                          SubnetMask::FromPrefixLength(24)));
  }
  const std::vector<Ipv4Address> gateways = {Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                             Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 4)};
  Interface ifaces[3];

  Rng rng(GetParam());
  RoutingTable indexed;
  LinearTable linear;
  SimTime now;
  auto pick_iface = [&]() { return &ifaces[rng.Uniform(0, 2)]; };
  // Attached subnets come first, as the topology builders add them.
  for (const char* attached : {"10.1.1.0/24", "11.0.0.0/8", "10.1.7.0/24"}) {
    Interface* iface = pick_iface();
    indexed.AddConnected(Net(attached), iface);
    linear.AddConnected(Net(attached), iface);
  }

  for (int step = 0; step < 3000; ++step) {
    now += Duration::Seconds(rng.Uniform(0, 20));
    const int64_t op = rng.Uniform(0, 99);
    if (op < 15) {
      const Duration max_age = Duration::Seconds(180);
      ASSERT_EQ(indexed.ExpireStale(now, max_age), linear.ExpireStale(now, max_age))
          << "step " << step;
    } else if (op < 40 && !linear.entries.empty()) {
      // An update from the gateway the route already uses: refreshes,
      // worsens, improves or poisons it.
      const RouteEntry current =
          linear.entries[static_cast<size_t>(rng.Uniform(0, linear.entries.size() - 1))];
      const uint32_t metric = static_cast<uint32_t>(rng.Uniform(1, 16));
      Interface* iface = rng.Bernoulli(0.8) ? current.out_iface : pick_iface();
      ASSERT_EQ(indexed.Learn(current.destination, current.gateway, iface, metric, now),
                linear.Learn(current.destination, current.gateway, iface, metric, now))
          << "step " << step;
    } else {
      const Subnet destination = pool[static_cast<size_t>(rng.Uniform(0, pool.size() - 1))];
      const Ipv4Address gateway =
          gateways[static_cast<size_t>(rng.Uniform(0, gateways.size() - 1))];
      const uint32_t metric = rng.Bernoulli(0.15) ? 16 : static_cast<uint32_t>(rng.Uniform(1, 15));
      Interface* iface = pick_iface();
      ASSERT_EQ(indexed.Learn(destination, gateway, iface, metric, now),
                linear.Learn(destination, gateway, iface, metric, now))
          << "step " << step;
    }

    ASSERT_EQ(indexed.entries().size(), linear.entries.size()) << "step " << step;
    for (size_t i = 0; i < linear.entries.size(); ++i) {
      ASSERT_TRUE(SameRoute(indexed.entries()[i], linear.entries[i]))
          << "step " << step << " entry " << i;
    }
    for (int probe = 0; probe < 8; ++probe) {
      Ipv4Address dst(static_cast<uint32_t>(rng.Uniform(0, 0xffffffff)));
      if (probe < 6) {
        // Mostly addresses inside some pool destination, so the probes land
        // on nested prefixes.
        const Subnet around = pool[static_cast<size_t>(rng.Uniform(0, pool.size() - 1))];
        dst = Ipv4Address(around.network().value() | (dst.value() & ~around.mask().value()));
      }
      ASSERT_TRUE(SameLookup(indexed.Lookup(dst), linear.Lookup(dst)))
          << "step " << step << " lookup " << dst.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTablePropertyTest, ::testing::Values(1, 7, 1993, 4242));

TEST_F(RoutingTableTest, ToStringRenders) {
  table_.AddConnected(Net("10.0.1.0/24"), &iface_a_);
  table_.Learn(Net("10.1.0.0/24"), Ipv4Address(10, 0, 0, 1), &iface_a_, 2, t0_);
  const std::string text = table_.ToString();
  EXPECT_NE(text.find("10.0.1.0/24"), std::string::npos);
  EXPECT_NE(text.find("(connected)"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.1"), std::string::npos);
}

}  // namespace
}  // namespace fremont
