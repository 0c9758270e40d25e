// Tests for the topology builders: ground-truth consistency, diurnal churn,
// background traffic, and fault injection wiring.

#include "src/sim/topology.h"

#include <gtest/gtest.h>

#include <set>

namespace fremont {
namespace {

TEST(CampusHostNameTest, DeterministicAndUnique) {
  std::set<std::string> names;
  for (size_t i = 0; i < 200; ++i) {
    names.insert(CampusHostName(i, "cs"));
  }
  EXPECT_EQ(names.size(), 200u);
  EXPECT_EQ(CampusHostName(0, "cs"), "alpha.cs.colorado.edu");
  EXPECT_EQ(CampusHostName(0, "ee"), "alpha.ee.colorado.edu");
  // Wraps with a numeric suffix after the pool is exhausted.
  EXPECT_EQ(CampusHostName(60, "cs"), "alpha2.cs.colorado.edu");
}

TEST(DepartmentSubnetTest, GroundTruthMatchesParams) {
  Simulator sim(3);
  DepartmentParams params;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);

  // 54 real interfaces on the subnet (paper: 56 DNS entries − 2 stale).
  int on_subnet = 0;
  std::set<uint32_t> ips;
  std::set<uint64_t> macs;
  for (const auto& iface : dept.truth.interfaces) {
    if (params.subnet.Contains(iface.ip)) {
      ++on_subnet;
      EXPECT_TRUE(ips.insert(iface.ip.value()).second) << "duplicate IP in clean build";
      EXPECT_TRUE(macs.insert(iface.mac.ToU64()).second) << "duplicate MAC";
    }
  }
  EXPECT_EQ(on_subnet, params.real_hosts);
  EXPECT_EQ(dept.dns_entry_count, 56);
  ASSERT_NE(dept.vantage, nullptr);
  EXPECT_TRUE(dept.vantage->IsUp());
  ASSERT_NE(dept.gateway, nullptr);
  EXPECT_EQ(dept.gateway->interfaces().size(), 2u);
}

TEST(DepartmentSubnetTest, DnsZoneHasStaleEntries) {
  Simulator sim(3);
  DepartmentParams params;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);
  // The reverse zone of the subnet lists 56 PTR records; 2 of them point at
  // addresses with no machine behind them.
  auto reverse = dept.dns->zone_db().ZoneTransfer("138.128.in-addr.arpa");
  int subnet_ptrs = 0;
  for (const auto& rr : reverse) {
    if (rr.type != DnsType::kPtr) {
      continue;
    }
    auto ip = ParseReverseDomainName(rr.name);
    if (ip.has_value() && params.subnet.Contains(*ip)) {
      ++subnet_ptrs;
    }
  }
  EXPECT_EQ(subnet_ptrs, 56);
}

TEST(DepartmentSubnetTest, TrafficFlows) {
  Simulator sim(3);
  DepartmentParams params;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);
  sim.RunFor(Duration::Hours(12));
  EXPECT_GT(dept.traffic->messages_sent(), 100u);
  EXPECT_GT(dept.segment->stats().frames_sent, 200u);
}

TEST(DepartmentSubnetTest, DiurnalChurnTogglesDesktops) {
  Simulator sim(3);
  DepartmentParams params;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);

  auto count_up = [&]() {
    int up = 0;
    for (Host* host : dept.hosts) {
      if (host->IsUp()) {
        ++up;
      }
    }
    return up;
  };

  // Mid-day vs deep-night populations differ noticeably.
  sim.RunUntil(SimTime::Epoch() + Duration::Hours(12));
  const int midday = count_up();
  sim.RunUntil(SimTime::Epoch() + Duration::Hours(26));  // 2am next day.
  const int night = count_up();
  EXPECT_GT(midday, night);
  // Servers & infrastructure never sleep.
  EXPECT_TRUE(dept.vantage->IsUp());
  EXPECT_TRUE(dept.dns_host->IsUp());
  EXPECT_TRUE(dept.gateway->IsUp());
}

TEST(CampusTest, StructureMatchesParams) {
  Simulator sim(1993);
  CampusParams params;
  Campus campus = BuildCampus(sim, params);

  EXPECT_EQ(campus.truth.assigned_subnets.size(),
            static_cast<size_t>(params.assigned_subnets));
  EXPECT_EQ(campus.truth.connected_subnets.size(),
            static_cast<size_t>(params.connected_subnets));
  EXPECT_EQ(campus.subnet_segments.size(), static_cast<size_t>(params.connected_subnets));
  EXPECT_EQ(campus.truth.traceroute_hidden_subnets, params.faulty_gateway_subnets);
  EXPECT_EQ(campus.truth.dns_named_gateways, params.dns_named_gateways);

  // Unique addressing across the whole campus (no accidental duplicates).
  std::set<uint32_t> ips;
  for (const auto& iface : campus.truth.interfaces) {
    EXPECT_TRUE(ips.insert(iface.ip.value()).second)
        << "duplicate " << iface.ip.ToString() << " in clean campus";
  }

  // Every gateway has ≥2 interfaces (backbone + subnets).
  for (Router* gw : campus.gateways) {
    EXPECT_GE(gw->interfaces().size(), 2u);
  }
}

TEST(CampusTest, RoutingWorksEndToEnd) {
  Simulator sim(1993);
  CampusParams params;
  Campus campus = BuildCampus(sim, params);

  // Pick a host on some far subnet and ping it from the vantage host.
  Host* far_host = nullptr;
  for (Host* host : campus.hosts) {
    if (host->primary_interface() != nullptr &&
        host->primary_interface()->segment != campus.vantage_segment) {
      far_host = host;
    }
  }
  ASSERT_NE(far_host, nullptr);
  int replies = 0;
  campus.vantage->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      ++replies;
    }
  });
  campus.vantage->SendIcmp(far_host->primary_interface()->ip, IcmpMessage::EchoRequest(1, 1));
  sim.RunFor(Duration::Seconds(5));
  EXPECT_EQ(replies, 1);
}

TEST(CampusTest, FaultInjectionWiring) {
  Simulator sim(7);
  CampusParams params;
  params.promiscuous_rip_hosts = 2;
  params.duplicate_ip_pairs = 1;
  params.wrong_mask_hosts = 3;
  Campus campus = BuildCampus(sim, params);

  int wrong_mask = 0;
  for (Host* host : campus.hosts) {
    if (host->config_ref().wrong_advertised_mask.has_value()) {
      ++wrong_mask;
    }
  }
  EXPECT_EQ(wrong_mask, 3);
  // Promiscuous hosts are on the vantage segment where RIPwatch runs.
  int promiscuous_daemon_count = 0;
  for (const auto& daemon : campus.rip_daemons) {
    (void)daemon;
  }
  EXPECT_EQ(campus.rip_daemons.size(),
            campus.gateways.size() + static_cast<size_t>(params.promiscuous_rip_hosts));
  (void)promiscuous_daemon_count;
}

TEST(CampusTest, DeterministicForSameSeed) {
  Simulator sim_a(42);
  Simulator sim_b(42);
  CampusParams params;
  Campus a = BuildCampus(sim_a, params);
  Campus b = BuildCampus(sim_b, params);
  ASSERT_EQ(a.truth.interfaces.size(), b.truth.interfaces.size());
  for (size_t i = 0; i < a.truth.interfaces.size(); ++i) {
    EXPECT_EQ(a.truth.interfaces[i].ip, b.truth.interfaces[i].ip);
    EXPECT_EQ(a.truth.interfaces[i].mac, b.truth.interfaces[i].mac);
    EXPECT_EQ(a.truth.interfaces[i].dns_name, b.truth.interfaces[i].dns_name);
  }
}

TEST(CampusTest, DifferentSeedsDiffer) {
  Simulator sim_a(1);
  Simulator sim_b(2);
  CampusParams params;
  Campus a = BuildCampus(sim_a, params);
  Campus b = BuildCampus(sim_b, params);
  bool any_difference = a.truth.interfaces.size() != b.truth.interfaces.size();
  for (size_t i = 0; !any_difference && i < a.truth.interfaces.size(); ++i) {
    any_difference = a.truth.interfaces[i].mac != b.truth.interfaces[i].mac;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace fremont
