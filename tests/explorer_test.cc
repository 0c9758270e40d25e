// Per-module Explorer tests on small controlled topologies, exercising each
// module's specific behaviours and edge cases (beyond the full-stack runs in
// integration_test.cc).

#include <gtest/gtest.h>

#include <map>

#include "src/explorer/arpwatch.h"
#include "src/explorer/explorer.h"
#include "src/explorer/broadcast_ping.h"
#include "src/explorer/dns_explorer.h"
#include "src/explorer/etherhostprobe.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/seq_ping.h"
#include "src/explorer/subnet_mask.h"
#include "src/explorer/traceroute.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/manager/discovery_manager.h"
#include "src/manager/module_registry.h"
#include "src/sim/rip_daemon.h"
#include "src/sim/simulator.h"
#include "src/sim/traffic.h"

namespace fremont {
namespace {

Subnet Net(const char* text) { return *Subnet::Parse(text); }

// --- ExplorerModule lifecycle ------------------------------------------------

// A module that leaves a straggler event behind: completion at t+10 s, plus a
// guarded event at t+20 s that must never run once the report is published —
// under concurrent ticks the instance outlives its run while peers drain.
class StragglerModule : public ExplorerModule {
 public:
  StragglerModule(Host* vantage, int* late_fires)
      : ExplorerModule("straggler", "Straggler", vantage, nullptr), late_fires_(late_fires) {}

 protected:
  void StartImpl() override {
    ScheduleGuarded(Duration::Seconds(20), [this]() { ++*late_fires_; });
    ScheduleGuarded(Duration::Seconds(10), [this]() { Complete(); });
  }

 private:
  int* late_fires_;
};

TEST(ExplorerLifecycleTest, LeftoverGuardedEventsDropAfterComplete) {
  EventQueue events;
  Rng rng(1);
  Host vantage("vantage", {}, &events, &rng);
  int late_fires = 0;
  StragglerModule module(&vantage, &late_fires);
  bool done = false;
  module.Start([&done](const ExplorerReport&) { done = true; });
  events.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_TRUE(module.finished());
  // The instance is still alive, but its t+20 s straggler fired as a no-op.
  EXPECT_EQ(late_fires, 0);
}

TEST(ExplorerLifecycleTest, LeftoverGuardedEventsDropAfterCancel) {
  EventQueue events;
  Rng rng(1);
  Host vantage("vantage", {}, &events, &rng);
  int late_fires = 0;
  StragglerModule module(&vantage, &late_fires);
  module.Start();
  module.Cancel();
  events.RunUntilIdle();
  EXPECT_TRUE(module.finished());
  EXPECT_EQ(late_fires, 0);
}

// A tiny lab: one subnet (10.1.1.0/24) with a vantage host and helpers.
class ExplorerLabTest : public ::testing::Test {
 protected:
  void SetUp() override {
    subnet_ = Net("10.1.1.0/24");
    segment_ = sim_.CreateSegment("lab", subnet_, segment_params_);
    vantage_ = AddHost("vantage", 250);
    server_ = std::make_unique<JournalServer>([this]() { return sim_.Now(); });
    client_ = std::make_unique<JournalClient>(server_.get());
  }

  Host* AddHost(const std::string& name, uint8_t last_octet, HostConfig config = {}) {
    Host* host = sim_.CreateHost(name, config);
    host->AttachTo(segment_, subnet_.HostAt(last_octet), subnet_.mask(),
                   MacAddress(2, 0, 0, 0, 1, last_octet));
    return host;
  }

  Simulator sim_{77};
  SegmentParams segment_params_;
  Subnet subnet_;
  Segment* segment_ = nullptr;
  Host* vantage_ = nullptr;
  std::unique_ptr<JournalServer> server_;
  std::unique_ptr<JournalClient> client_;
};

// Counts its end-of-run hook and records whether its tap was still on the
// segment when the hook ran. The hook makes the run's one Journal store, so
// the report counts it only if the writer is flushed after the hook.
class HookCountingModule : public ExplorerModule {
 public:
  HookCountingModule(Host* vantage, const Segment* segment, JournalClient* journal,
                     bool degenerate)
      : ExplorerModule("hookcount", "HookCount", vantage, journal),
        segment_(segment),
        degenerate_(degenerate) {}

  int hook_runs() const { return hook_runs_; }
  bool tapped_in_hook() const { return tapped_in_hook_; }

 protected:
  void StartImpl() override {
    if (degenerate_) {
      Complete();  // Nothing to do.
      return;
    }
    Tap([](const EthernetFrame&, SimTime) {});
    ScheduleGuarded(Duration::Seconds(10), [this]() { Complete(); });
  }

  void Finish() override {
    ++hook_runs_;
    tapped_in_hook_ = segment_->tap_count() == 1;
    InterfaceObservation obs;
    obs.ip = Ipv4Address(10, 1, 1, 99);
    writer().StoreInterface(obs, DiscoverySource::kManual);
  }

 private:
  const Segment* segment_;
  bool degenerate_;
  int hook_runs_ = 0;
  bool tapped_in_hook_ = false;
};

// Complete() runs the hook exactly once however the run ends (its last
// event, Cancel(), or a degenerate Start()), before it detaches and flushes.
TEST_F(ExplorerLabTest, EndOfRunHookRunsOnceOnEveryEnding) {
  for (const std::string ending : {"natural", "cancel", "degenerate"}) {
    SCOPED_TRACE(ending);
    HookCountingModule module(vantage_, segment_, client_.get(), ending == "degenerate");
    int completions = 0;
    ExplorerReport report;
    module.Start([&](const ExplorerReport& final_report) {
      ++completions;
      report = final_report;
    });
    if (ending == "cancel") {
      sim_.RunFor(Duration::Seconds(1));
      module.Cancel();
    }
    sim_.RunFor(Duration::Seconds(20));
    module.Cancel();  // The run is over: a no-op.
    EXPECT_EQ(module.hook_runs(), 1);
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(module.tapped_in_hook(), ending != "degenerate");
    EXPECT_EQ(report.records_written, 1);
    EXPECT_EQ(segment_->tap_count(), 0u);
  }
  HookCountingModule unstarted(vantage_, segment_, client_.get(), false);
  unstarted.Cancel();
  EXPECT_EQ(unstarted.hook_runs(), 0);
}

// The four degenerate starts complete inside Start() through the hook, and
// write nothing.
TEST_F(ExplorerLabTest, DegenerateStartsCompleteAtOnceAndWriteNothing) {
  Host* bare = sim_.CreateHost("bare");  // No interface.
  Host* detached = AddHost("detached", 20);
  segment_->Detach(detached->primary_interface());  // An interface on no segment.
  std::vector<std::unique_ptr<ExplorerModule>> modules;
  modules.push_back(std::make_unique<BroadcastPing>(bare, client_.get()));
  modules.push_back(std::make_unique<SeqPing>(bare, client_.get()));
  modules.push_back(std::make_unique<EtherHostProbe>(detached, client_.get()));
  modules.push_back(std::make_unique<Traceroute>(vantage_, client_.get()));  // No targets.
  for (const auto& module : modules) {
    SCOPED_TRACE(module->key());
    int completions = 0;
    ExplorerReport report;
    module->Start([&](const ExplorerReport& final_report) {
      ++completions;
      report = final_report;
    });
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(report.records_written, 0);
    EXPECT_EQ(report.discovered, 0);
  }
  const JournalStats stats = client_->GetStats();
  EXPECT_EQ(stats.interface_count + stats.gateway_count + stats.subnet_count, 0u);
}

// --- ARPwatch ----------------------------------------------------------------

TEST_F(ExplorerLabTest, ArpWatchSeesBothSidesOfExchange) {
  Host* a = AddHost("a", 10);
  Host* b = AddHost("b", 11);
  b->BindUdp(5000, [](const Ipv4Packet&, const UdpDatagram&) {});

  ArpWatch watch(vantage_, client_.get());
  watch.Start();
  ASSERT_TRUE(watch.running());  // The tap is attached.
  a->SendUdp(b->primary_interface()->ip, 1, 5000, {});
  sim_.RunFor(Duration::Minutes(1));
  watch.Cancel();

  // Requester visible from the broadcast request, responder from the reply.
  EXPECT_EQ(watch.unique_pairs_seen(), 2);
  auto records = client_->GetInterfaces();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.mac.has_value());
    EXPECT_EQ(rec.sources, SourceBit(DiscoverySource::kArpWatch));
  }
}

TEST_F(ExplorerLabTest, ArpWatchThrottlesRewrites) {
  Host* a = AddHost("a", 10);
  Host* b = AddHost("b", 11);
  b->BindUdp(5000, [](const Ipv4Packet&, const UdpDatagram&) {});
  ArpWatchParams params;
  params.watch = Duration::Hours(2);  // Outlasts the 84-minute window.
  params.write_throttle = Duration::Minutes(10);
  ArpWatch watch(vantage_, client_.get(), params);
  ExplorerReport report;
  watch.Start([&report](const ExplorerReport& final_report) { report = final_report; });

  // ARP cache timeout is 20 min; exchanges every ~21 min re-ARP each time.
  for (int i = 0; i < 4; ++i) {
    a->SendUdp(b->primary_interface()->ip, 1, 5000, {});
    sim_.RunFor(Duration::Minutes(21));
  }
  watch.Cancel();
  EXPECT_EQ(watch.unique_pairs_seen(), 2);
  // Journal received several verifications but the record set stayed at 2.
  EXPECT_EQ(client_->GetInterfaces().size(), 2u);
  EXPECT_GE(report.records_written, 4);  // Throttled, but re-verified.
  EXPECT_EQ(report.packets_sent, 0u);    // Strictly passive.
}

TEST_F(ExplorerLabTest, ArpWatchIgnoresAddressProbes) {
  // Sender IP 0.0.0.0 (DHCP-style address probe) must not create a record.
  ArpWatch watch(vantage_, client_.get());
  watch.Start();
  ArpPacket probe;
  probe.op = ArpOp::kRequest;
  probe.sender_mac = MacAddress(2, 0, 0, 0, 9, 9);
  probe.sender_ip = Ipv4Address();
  probe.target_ip = subnet_.HostAt(77);
  EthernetFrame frame;
  frame.dst = MacAddress::Broadcast();
  frame.src = probe.sender_mac;
  frame.ethertype = EtherType::kArp;
  frame.payload = probe.Encode();
  segment_->Transmit(frame);
  sim_.RunFor(Duration::Minutes(1));
  watch.Cancel();
  EXPECT_EQ(watch.unique_pairs_seen(), 0);
}

// --- EtherHostProbe ----------------------------------------------------------

TEST_F(ExplorerLabTest, EtherHostProbeRangeRestriction) {
  AddHost("a", 10);
  AddHost("b", 20);
  AddHost("c", 30);
  EtherHostProbeParams params;
  params.first = subnet_.HostAt(5);
  params.last = subnet_.HostAt(25);  // Excludes .30.
  EtherHostProbe probe(vantage_, client_.get(), params);
  ExplorerReport report = probe.Run();
  EXPECT_EQ(report.discovered, 2);
  for (const auto& rec : client_->GetInterfaces()) {
    EXPECT_NE(rec.ip, subnet_.HostAt(30));
  }
}

TEST_F(ExplorerLabTest, EtherHostProbeSkipsProxyArpBlocks) {
  AddHost("a", 10);
  // A terminal server proxying for .100-.107.
  RouterConfig ts_config;
  ts_config.proxy_arp_local_base = subnet_.HostAt(100);
  ts_config.proxy_arp_local_count = 8;
  Router* terminal_server = sim_.CreateRouter("ts", ts_config);
  terminal_server->AttachTo(segment_, subnet_.HostAt(99), subnet_.mask(),
                            MacAddress(2, 0, 0, 0, 1, 99));

  EtherHostProbeParams params;
  params.first = subnet_.HostAt(5);
  params.last = subnet_.HostAt(110);
  EtherHostProbe probe(vantage_, client_.get(), params);
  ExplorerReport report = probe.Run();

  EXPECT_EQ(probe.proxy_suspects(), 1);
  // Only the real host is recorded: the terminal server's MAC answered for
  // nine addresses (its own plus the proxied block), and the module cannot
  // tell which one is genuine — so it records none of them.
  EXPECT_EQ(report.discovered, 1);
  auto records = client_->GetInterfaces();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].ip, subnet_.HostAt(10));
}

TEST_F(ExplorerLabTest, EtherHostProbeRateLimit) {
  AddHost("a", 10);
  EtherHostProbeParams params;
  params.first = subnet_.HostAt(1);
  params.last = subnet_.HostAt(40);
  params.packets_per_second = 4.0;
  EtherHostProbe probe(vantage_, client_.get(), params);
  ExplorerReport report = probe.Run();
  // 40 addresses at 4/s: at least 10 simulated seconds.
  EXPECT_GE(report.Elapsed(), Duration::Seconds(10));
}

// --- SeqPing -----------------------------------------------------------------

TEST_F(ExplorerLabTest, SeqPingRetriesNonResponders) {
  AddHost("a", 10);
  HostConfig deaf;
  deaf.responds_to_echo = false;
  AddHost("b", 11, deaf);

  SeqPingParams params;
  params.first = subnet_.HostAt(10);
  params.last = subnet_.HostAt(11);
  SeqPing ping(vantage_, client_.get(), params);
  ExplorerReport report = ping.Run();
  EXPECT_EQ(report.discovered, 1);
  ASSERT_EQ(ping.responders().size(), 1u);
  EXPECT_EQ(ping.responders()[0], subnet_.HostAt(10));
  // First pass pings both, retry pass pings the deaf one again: the echo
  // requests alone are 3 = 2 + 1.
  EXPECT_GE(report.packets_sent, 3u);
}

TEST_F(ExplorerLabTest, SeqPingTwoSecondPacing) {
  AddHost("a", 10);
  AddHost("b", 11);
  AddHost("c", 12);
  SeqPingParams params;
  params.first = subnet_.HostAt(10);
  params.last = subnet_.HostAt(12);
  SeqPing ping(vantage_, client_.get(), params);
  ExplorerReport report = ping.Run();
  // 3 addresses at 2 s spacing + 10 s reply timeout ≥ 16 s.
  EXPECT_GE(report.Elapsed(), Duration::Seconds(14));
  EXPECT_EQ(report.discovered, 3);
}

// --- BroadcastPing -----------------------------------------------------------

TEST_F(ExplorerLabTest, BroadcastPingLocalSubnet) {
  for (uint8_t i = 10; i < 30; ++i) {
    AddHost("h" + std::to_string(i), i);
  }
  BroadcastPing bping(vantage_, client_.get());
  ExplorerReport report = bping.Run();
  EXPECT_GT(report.discovered, 10);
  EXPECT_LE(report.discovered, 20);
  // A couple of broadcast requests only — the whole point of the module.
  EXPECT_LE(report.packets_sent, 4u);
}

TEST_F(ExplorerLabTest, BroadcastPingRespectsOptOut) {
  HostConfig shy;
  shy.responds_to_broadcast_ping = false;
  AddHost("shy", 10, shy);
  AddHost("ok", 11);
  BroadcastPing bping(vantage_, client_.get());
  ExplorerReport report = bping.Run();
  EXPECT_EQ(report.discovered, 1);
}

// --- SubnetMasks ---------------------------------------------------------------

TEST_F(ExplorerLabTest, SubnetMaskTargetsFromJournal) {
  AddHost("a", 10);
  HostConfig quiet;
  quiet.responds_to_mask_request = false;
  AddHost("b", 11, quiet);

  // Seed the Journal with both addresses, mask unknown.
  for (uint8_t i : {10, 11}) {
    InterfaceObservation obs;
    obs.ip = subnet_.HostAt(i);
    client_->StoreInterface(obs, DiscoverySource::kSeqPing);
  }
  SubnetMaskExplorer masks(vantage_, client_.get());
  ExplorerReport report = masks.Run();
  EXPECT_EQ(report.discovered, 1);  // Only the host that answers.
  auto recs = client_->GetInterfaces(Selector::ByIp(subnet_.HostAt(10)));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].mask->PrefixLength(), 24);
}

// --- RIPwatch ------------------------------------------------------------------

TEST_F(ExplorerLabTest, RipWatchClassifiesRoutes) {
  // A router advertising subnets of our class A network plus a foreign net.
  Router* gw = sim_.CreateRouter("gw", {});
  Interface* gw_iface = gw->AttachTo(segment_, subnet_.HostAt(1), subnet_.mask(),
                                     MacAddress(2, 0, 0, 0, 1, 1));
  Segment* other = sim_.CreateSegment("other", Net("10.1.2.0/24"));
  gw->AttachTo(other, Ipv4Address(10, 1, 2, 1), SubnetMask::FromPrefixLength(24),
               MacAddress(2, 0, 0, 0, 1, 2));
  // A foreign class B network learned over the far interface: RIPv1 carries
  // no mask, so RIPwatch must fall back to the natural (classful) mask.
  gw->routing_table().Learn(Net("150.50.0.0/16"), Ipv4Address(10, 1, 2, 9),
                            gw->interfaces().back().get(), 3, sim_.Now());
  RipDaemon daemon(gw, gw, {});
  daemon.Start();

  RipWatch watch(vantage_, client_.get(), {.watch = Duration::Minutes(2)});
  ExplorerReport report = watch.Run();
  (void)gw_iface;
  // Local subnet (implicit) + 10.1.2/24 + foreign 150.50/16 (natural mask).
  EXPECT_EQ(report.discovered, 3);
  auto subnets = client_->GetSubnets();
  bool found_foreign = false;
  for (const auto& rec : subnets) {
    if (rec.subnet == Subnet(Ipv4Address(150, 50, 0, 0), SubnetMask::FromPrefixLength(16))) {
      found_foreign = true;
    }
  }
  EXPECT_TRUE(found_foreign);
}

TEST_F(ExplorerLabTest, RipWatchIgnoresPromiscuousRoutes) {
  Router* gw = sim_.CreateRouter("gw", {});
  gw->AttachTo(segment_, subnet_.HostAt(1), subnet_.mask(), MacAddress(2, 0, 0, 0, 1, 1));
  Segment* other = sim_.CreateSegment("other", Net("10.1.2.0/24"));
  gw->AttachTo(other, Ipv4Address(10, 1, 2, 1), SubnetMask::FromPrefixLength(24),
               MacAddress(2, 0, 0, 0, 1, 2));
  RipDaemon honest(gw, gw, {});
  honest.Start();

  Host* chatty = AddHost("chatty", 66);
  RipDaemonConfig bad;
  bad.promiscuous_rebroadcast = true;
  RipDaemon echo(chatty, nullptr, bad);
  echo.Start();

  RipWatch watch(vantage_, client_.get(), {.watch = Duration::Minutes(3)});
  watch.Run();

  auto promiscuous = watch.promiscuous_sources();
  ASSERT_EQ(promiscuous.size(), 1u);
  EXPECT_EQ(promiscuous[0], subnet_.HostAt(66));
  // The promiscuous source is flagged in the Journal; honest gateway is not.
  for (const auto& rec : client_->GetInterfaces()) {
    if (rec.ip == subnet_.HostAt(66)) {
      EXPECT_TRUE(rec.rip_promiscuous);
      EXPECT_TRUE(rec.rip_source);
    } else if (rec.ip == subnet_.HostAt(1)) {
      EXPECT_FALSE(rec.rip_promiscuous);
      EXPECT_TRUE(rec.rip_source);
    }
  }
}

// --- Traceroute -----------------------------------------------------------------

class TracerouteLabTest : public ::testing::Test {
 protected:
  // vantage(10.2.1.250) — [10.2.1/24] r1 — [10.2.0/24 backbone] r2 — [10.2.5/24] host .10
  void SetUp() override {
    lan_ = sim_.CreateSegment("lan", Net("10.2.1.0/24"));
    backbone_ = sim_.CreateSegment("backbone", Net("10.2.0.0/24"));
    target_lan_ = sim_.CreateSegment("target", Net("10.2.5.0/24"));

    r1_ = sim_.CreateRouter("r1", {});
    r1_lan_ = r1_->AttachTo(lan_, Ipv4Address(10, 2, 1, 1), SubnetMask::FromPrefixLength(24),
                            MacAddress(2, 0, 0, 1, 0, 1));
    r1_bb_ = r1_->AttachTo(backbone_, Ipv4Address(10, 2, 0, 1), SubnetMask::FromPrefixLength(24),
                           MacAddress(2, 0, 0, 1, 0, 2));
    r2_ = sim_.CreateRouter("r2", {});
    r2_bb_ = r2_->AttachTo(backbone_, Ipv4Address(10, 2, 0, 2), SubnetMask::FromPrefixLength(24),
                           MacAddress(2, 0, 0, 1, 0, 3));
    r2_target_ = r2_->AttachTo(target_lan_, Ipv4Address(10, 2, 5, 1),
                               SubnetMask::FromPrefixLength(24), MacAddress(2, 0, 0, 1, 0, 4));
    r1_->routing_table().Learn(Net("10.2.5.0/24"), r2_bb_->ip, r1_bb_, 2, sim_.Now());
    r2_->routing_table().Learn(Net("10.2.1.0/24"), r1_bb_->ip, r2_bb_, 2, sim_.Now());

    vantage_ = sim_.CreateHost("vantage");
    vantage_->AttachTo(lan_, Ipv4Address(10, 2, 1, 250), SubnetMask::FromPrefixLength(24),
                       MacAddress(2, 0, 0, 1, 0, 5));
    vantage_->SetDefaultGateway(r1_lan_->ip);

    target_host_ = sim_.CreateHost("deep");
    target_host_->AttachTo(target_lan_, Ipv4Address(10, 2, 5, 10),
                           SubnetMask::FromPrefixLength(24), MacAddress(2, 0, 0, 1, 0, 6));
    target_host_->SetDefaultGateway(r2_target_->ip);

    server_ = std::make_unique<JournalServer>([this]() { return sim_.Now(); });
    client_ = std::make_unique<JournalClient>(server_.get());
  }

  Simulator sim_{101};
  Segment* lan_ = nullptr;
  Segment* backbone_ = nullptr;
  Segment* target_lan_ = nullptr;
  Router* r1_ = nullptr;
  Router* r2_ = nullptr;
  Interface* r1_lan_ = nullptr;
  Interface* r1_bb_ = nullptr;
  Interface* r2_bb_ = nullptr;
  Interface* r2_target_ = nullptr;
  Host* vantage_ = nullptr;
  Host* target_host_ = nullptr;
  std::unique_ptr<JournalServer> server_;
  std::unique_ptr<JournalClient> client_;
};

TEST_F(TracerouteLabTest, DiscoversHopsAndGatewaySubnetLinks) {
  TracerouteParams params;
  params.targets = {Net("10.2.5.0/24")};
  Traceroute trace(vantage_, client_.get(), params);
  ExplorerReport report = trace.Run();

  ASSERT_EQ(trace.results().size(), 1u);
  const TraceResult& result = trace.results()[0];
  EXPECT_TRUE(result.reached);
  ASSERT_GE(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[0].address, r1_lan_->ip);  // Near-side interfaces only.
  EXPECT_EQ(result.hops[1].address, r2_bb_->ip);

  // Target subnet confirmed, and r2 linked to it.
  EXPECT_GE(report.discovered, 3);  // lan + backbone + target.
  const auto gateways = client_->GetGateways();
  bool r2_linked = false;
  for (const auto& gw : gateways) {
    for (const auto& subnet : gw.connected_subnets) {
      if (subnet == Net("10.2.5.0/24")) {
        r2_linked = true;
      }
    }
  }
  EXPECT_TRUE(r2_linked);
}

TEST_F(TracerouteLabTest, ThreeAddressProbingFindsSubnetWithoutHosts) {
  target_host_->SetUp(false);  // No ordinary host will answer.
  TracerouteParams params;
  params.targets = {Net("10.2.5.0/24")};
  Traceroute trace(vantage_, client_.get(), params);
  trace.Run();
  // Host-zero (or .1, the gateway interface) still answers: subnet found.
  ASSERT_EQ(trace.results().size(), 1u);
  EXPECT_TRUE(trace.results()[0].reached);
}

TEST_F(TracerouteLabTest, SingleAddressAblationCanStillReachViaHostZero) {
  TracerouteParams params;
  params.targets = {Net("10.2.5.0/24")};
  params.probe_three_addresses = false;
  Traceroute trace(vantage_, client_.get(), params);
  ExplorerReport report = trace.Run();
  ASSERT_EQ(trace.results().size(), 1u);
  EXPECT_TRUE(trace.results()[0].reached);
  // One address traced → roughly a third of the probes.
  EXPECT_LT(report.packets_sent, 20u);
}

TEST_F(TracerouteLabTest, StopsAtBackboneNetworks) {
  TracerouteParams params;
  params.targets = {Net("10.2.5.0/24")};
  params.stop_networks = {Net("10.2.0.0/24")};  // Declare the backbone off-limits.
  Traceroute trace(vantage_, client_.get(), params);
  trace.Run();
  ASSERT_EQ(trace.results().size(), 1u);
  const TraceResult& result = trace.results()[0];
  // The trace stops at the r2 backbone hop; the destination is never probed.
  EXPECT_FALSE(result.terminal_in_target);
}

TEST_F(TracerouteLabTest, SilentGatewayHidesSubnet) {
  r2_->router_config().silent_ttl_drop = true;
  r2_->config().accepts_host_zero = false;
  r2_->config().sends_port_unreachable = false;
  target_host_->SetUp(false);
  TracerouteParams params;
  params.targets = {Net("10.2.5.0/24")};
  Traceroute trace(vantage_, client_.get(), params);
  trace.Run();
  ASSERT_EQ(trace.results().size(), 1u);
  EXPECT_FALSE(trace.results()[0].reached);
}

TEST_F(TracerouteLabTest, RateLimitHolds) {
  TracerouteParams params;
  params.targets = {Net("10.2.5.0/24")};
  params.packets_per_second = 8.0;
  Traceroute trace(vantage_, client_.get(), params);
  ExplorerReport report = trace.Run();
  // Packets per simulated second must not exceed the configured rate by
  // much (ARP traffic rides on top, hence the small allowance).
  const double rate = static_cast<double>(report.packets_sent) /
                      std::max<double>(1.0, report.Elapsed().ToSecondsF());
  EXPECT_LE(rate, 10.0);
}

// --- Vantage plumbing: counted sends and registrations ----------------------------

// The lab on a segment that never drops a frame, so every probe and reply
// lands and packet counts are exact.
class QuietLabTest : public ExplorerLabTest {
 protected:
  QuietLabTest() { segment_params_.loss_per_concurrent = 0.0; }
};

// Modules launched into one Discovery Manager tick overlap on the vantage.
// Each must be charged only the packets it sent (the paper's Table 4 load),
// not everything the vantage sent while it ran.
TEST_F(QuietLabTest, ConcurrentTickChargesEachModuleOnlyItsOwnPackets) {
  for (uint8_t octet : {10, 11, 12}) {
    AddHost("h" + std::to_string(octet), octet);
  }
  DiscoveryManager manager(&sim_.events(), client_.get());
  auto add = [&manager](const char* name, std::function<std::unique_ptr<ExplorerModule>()> make) {
    manager.RegisterModule({name, Duration::Hours(2), Duration::Days(7), std::move(make)});
  };
  add("broadcastping", [this]() {
    BroadcastPingParams params;
    params.pings = 1;
    return std::make_unique<BroadcastPing>(vantage_, client_.get(), params);
  });
  add("subnetmasks",
      [this]() { return std::make_unique<SubnetMaskExplorer>(vantage_, client_.get()); });
  add("seqping", [this]() {
    // .10-.12 answer; .13 does not exist.
    SeqPingParams params;
    params.first = subnet_.HostAt(10);
    params.last = subnet_.HostAt(13);
    return std::make_unique<SeqPing>(vantage_, client_.get(), params);
  });

  const uint64_t vantage_before = vantage_->packets_sent();
  const std::vector<ExplorerReport> reports = manager.Tick();
  const uint64_t vantage_sent = vantage_->packets_sent() - vantage_before;

  ASSERT_EQ(reports.size(), 3u);
  std::map<std::string, uint64_t> sent;
  uint64_t total = 0;
  for (const auto& report : reports) {
    sent[report.module] = report.packets_sent;
    total += report.packets_sent;
  }
  EXPECT_EQ(sent["BrdcastPing"], 1u);  // One broadcast ping.
  EXPECT_EQ(sent["SubnetMasks"], 0u);  // Empty Journal: no targets.
  EXPECT_EQ(sent["SeqPing"], 5u);      // Four first-pass requests, one retry to .13.
  EXPECT_LE(total, vantage_sent);
}

// A module whose run ends mid-probe, destroyed without Cancel() or
// Cancel()ed and kept, must leave no listener, port or tap behind: the
// traffic below would otherwise reach a dead module (ASan reports the use
// after free) or a finished one, and its ports would stay taken.
class DestroyedModuleTest : public QuietLabTest,
                            public ::testing::WithParamInterface<std::string> {
 protected:
  // Starts the parameter's module against a peer that answers nothing, so
  // every probe is still waiting 1 s in.
  std::unique_ptr<ExplorerModule> StartMidRun(ExplorerModule::CompletionFn done = nullptr) {
    const ModuleSpec* spec = FindModuleSpec(GetParam());
    EXPECT_NE(spec, nullptr);
    if (spec == nullptr) {
      return nullptr;
    }
    HostConfig mute;
    mute.responds_to_echo = false;
    mute.responds_to_mask_request = false;
    mute.udp_echo_enabled = false;
    mute.sends_port_unreachable = false;
    peer_ = AddHost("peer", 77, mute);
    // Targets for the Journal-fed modules: the peer as a RIP source
    // (RIPprobe, ServiceProbe, SubnetMasks) and a remote subnet (Traceroute).
    InterfaceObservation source;
    source.ip = peer_->primary_interface()->ip;
    source.rip_source = true;
    client_->StoreInterface(source, DiscoverySource::kRipWatch);
    SubnetObservation remote;
    remote.subnet = Net("10.9.9.0/24");
    client_->StoreSubnet(remote, DiscoverySource::kRipWatch);

    std::unique_ptr<ExplorerModule> module = spec->make(vantage_, client_.get());
    module->Start(std::move(done));
    sim_.RunFor(Duration::Seconds(1));
    EXPECT_TRUE(module->running());
    return module;
  }

  // Sends traffic that every registration a module can make would receive,
  // then checks that none is left.
  void ExpectNothingRegistered() {
    const Ipv4Address vantage_ip = vantage_->primary_interface()->ip;
    const Ipv4Address peer_ip = peer_->primary_interface()->ip;
    // Replies that pass each module's listener filter: SeqPing's and
    // BroadcastPing's echo identifiers, SubnetMasks' and DNS's mask
    // identifiers, and errors quoting ServiceProbe's and Traceroute's probes.
    for (uint16_t ident : {0x5051, 0x4250}) {
      peer_->SendIcmp(vantage_ip, IcmpMessage::EchoReply(ident, 0));
    }
    for (uint16_t ident : {0x4d53, 0x444d}) {
      peer_->SendIcmp(vantage_ip, IcmpMessage::MaskReply(ident, 0, subnet_.mask()));
    }
    for (const auto& [src_port, dst_port] :
         {std::pair<uint16_t, uint16_t>{31007, kUdpEchoPort}, {40001, kTracerouteBasePort}}) {
      UdpDatagram probe;
      probe.src_port = src_port;
      probe.dst_port = dst_port;
      Ipv4Packet quoted;
      quoted.src = vantage_ip;
      quoted.dst = peer_ip;
      quoted.payload = probe.Encode();
      peer_->SendIcmp(vantage_ip, IcmpMessage::DestUnreachable(
                                      IcmpUnreachableCode::kPortUnreachable, quoted.Encode()));
      peer_->SendIcmp(vantage_ip, IcmpMessage::TimeExceeded(quoted.Encode()));
    }
    // Datagrams to RIPprobe's, ServiceProbe's and DNS's client ports.
    const std::vector<uint16_t> ports = {30520, 31007, 40053};
    for (uint16_t port : ports) {
      peer_->SendUdp(vantage_ip, kDnsPort, port, {});
    }
    // Frames for the taps: a RIP response (RIPwatch) and an ARP request for
    // an absent host (ARPwatch).
    RipPacket response;
    response.entries.push_back(RipEntry{Net("10.9.9.0/24").network(), 1});
    peer_->SendUdp(subnet_.BroadcastAddress(), kRipPort, kRipPort, response.Encode());
    peer_->SendUdp(subnet_.HostAt(78), kDnsPort, kUdpEchoPort, {});
    sim_.RunFor(Duration::Seconds(30));

    EXPECT_EQ(vantage_->icmp_listener_count(), 0u);
    EXPECT_EQ(segment_->tap_count(), 0u);
    for (uint16_t port : ports) {
      EXPECT_TRUE(vantage_->BindUdp(port, [](const Ipv4Packet&, const UdpDatagram&) {}))
          << "port " << port << " is still bound";
    }
  }

  Host* peer_ = nullptr;
};

TEST_P(DestroyedModuleTest, LeavesNothingRegistered) {
  std::unique_ptr<ExplorerModule> module = StartMidRun();
  ASSERT_NE(module.get(), nullptr);
  module.reset();
  ExpectNothingRegistered();
}

// Cancel() ends the run through the one lifecycle: the completion callback
// fires exactly once, and the module, still alive, holds nothing.
TEST_P(DestroyedModuleTest, CancelCompletesOnceAndLeavesNothingRegistered) {
  int completions = 0;
  ExplorerReport report;
  const std::unique_ptr<ExplorerModule> module =
      StartMidRun([&completions, &report](const ExplorerReport& final_report) {
        ++completions;
        report = final_report;
      });
  ASSERT_NE(module.get(), nullptr);
  module->Cancel();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(module->finished());
  // What the end-of-run hook writes 1 s in: RIPwatch records the subnet it
  // is attached to; no other module has gathered anything yet.
  EXPECT_EQ(report.records_written, GetParam() == "ripwatch" ? 1 : 0);
  module->Cancel();  // A second ending is a no-op.
  ExpectNothingRegistered();
  EXPECT_EQ(completions, 1);
}

std::vector<std::string> StandardModuleNames() {
  std::vector<std::string> names;
  for (const auto& spec : StandardModuleSpecs()) {
    names.push_back(spec.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(StandardModules, DestroyedModuleTest,
                         ::testing::ValuesIn(StandardModuleNames()),
                         [](const ::testing::TestParamInfo<std::string>& module) {
                           return module.param;
                         });

// A module undoes only what it registered: a DnsExplorer that never ran holds
// no port, so destroying it leaves another holder's binding of its client
// port in place.
TEST_F(ExplorerLabTest, UnstartedDnsExplorerLeavesAnotherHoldersPortBound) {
  int delivered = 0;
  ASSERT_TRUE(vantage_->BindUdp(
      40053, [&delivered](const Ipv4Packet&, const UdpDatagram&) { ++delivered; }));
  { DnsExplorer dns(vantage_, client_.get()); }
  Host* peer = AddHost("peer", 10);
  peer->SendUdp(vantage_->primary_interface()->ip, kDnsPort, 40053, {});
  sim_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace fremont
