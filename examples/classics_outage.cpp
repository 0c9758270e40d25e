// The paper's opening scenario, reproduced end to end:
//
//   "Everything looked OK on the network monitor when your boss walked in,
//    complaining that she couldn't get to the Ancient History server in the
//    Classics department. ... you never knew that the connection was via a
//    Sun workstation / gateway in the Athletics department. After a quick
//    call, you can report back to your boss that the coach has plugged his
//    workstation back in."
//
// We build exactly that corner of the campus: the Classics subnet hangs off
// a Sun workstation doubling as a gateway in Athletics. Fremont discovers
// the topology while everything works; later the coach unplugs the Sun; the
// history server becomes unreachable, the usual monitoring of "known"
// machines shows nothing wrong — but the Journal still knows the dependency
// and the analysis points straight at the silent gateway.
//
//   $ ./classics_outage

#include <cstdio>

#include "src/analysis/route_inference.h"
#include "src/analysis/staleness.h"
#include "src/explorer/etherhostprobe.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/traceroute.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/net/oui.h"
#include "src/present/views.h"
#include "src/sim/rip_daemon.h"
#include "src/sim/simulator.h"

using namespace fremont;

int main() {
  Simulator sim(1848);  // The year gold was found at Sutter's Mill; Fremont approved.
  const Subnet cs_subnet = *Subnet::Parse("128.138.238.0/24");
  const Subnet backbone = *Subnet::Parse("128.138.0.0/24");
  const Subnet athletics_subnet = *Subnet::Parse("128.138.50.0/24");
  const Subnet classics_subnet = *Subnet::Parse("128.138.77.0/24");

  Segment* cs_lan = sim.CreateSegment("cs", cs_subnet);
  Segment* bb = sim.CreateSegment("backbone", backbone);
  Segment* athletics_lan = sim.CreateSegment("athletics", athletics_subnet);
  Segment* classics_lan = sim.CreateSegment("classics", classics_subnet);

  // Proper campus routers for CS and Athletics...
  Router* cs_gw = sim.CreateRouter("cs-gw", {});
  Interface* cs_gw_lan = cs_gw->AttachTo(cs_lan, cs_subnet.HostAt(1), cs_subnet.mask(),
                                         MacAddress::FromOui(kOuiCisco, 1));
  Interface* cs_gw_bb = cs_gw->AttachTo(bb, backbone.HostAt(238), backbone.mask(),
                                        MacAddress::FromOui(kOuiCisco, 2));
  Router* ath_gw = sim.CreateRouter("athletics-gw", {});
  Interface* ath_gw_bb = ath_gw->AttachTo(bb, backbone.HostAt(50), backbone.mask(),
                                          MacAddress::FromOui(kOuiProteon, 1));
  Interface* ath_gw_lan = ath_gw->AttachTo(athletics_lan, athletics_subnet.HostAt(1),
                                           athletics_subnet.mask(),
                                           MacAddress::FromOui(kOuiProteon, 2));

  // ...but the Classics subnet hangs off the coach's Sun workstation.
  Router* coach_sun = sim.CreateRouter("coach-sun", {});
  Interface* coach_ath = coach_sun->AttachTo(athletics_lan, athletics_subnet.HostAt(10),
                                             athletics_subnet.mask(),
                                             MacAddress::FromOui(kOuiSun, 0x1111));
  coach_sun->AttachTo(classics_lan, classics_subnet.HostAt(1), classics_subnet.mask(),
                      MacAddress::FromOui(kOuiSun, 0x1112));

  Host* history_server = sim.CreateHost("history.classics.colorado.edu");
  history_server->AttachTo(classics_lan, classics_subnet.HostAt(10), classics_subnet.mask(),
                           MacAddress::FromOui(kOuiDec, 0x2222));
  history_server->SetDefaultGateway(classics_subnet.HostAt(1));

  Host* vantage = sim.CreateHost("fremont.cs.colorado.edu");
  vantage->AttachTo(cs_lan, cs_subnet.HostAt(250), cs_subnet.mask(),
                    MacAddress::FromOui(kOuiSun, 0x3333));
  vantage->SetDefaultGateway(cs_gw_lan->ip);

  // Static routing + RIP (the coach's Sun runs routed, of course).
  cs_gw->routing_table().Learn(athletics_subnet, ath_gw_bb->ip, cs_gw_bb, 2, sim.Now());
  cs_gw->routing_table().Learn(classics_subnet, ath_gw_bb->ip, cs_gw_bb, 3, sim.Now());
  ath_gw->routing_table().Learn(cs_subnet, cs_gw_bb->ip, ath_gw_bb, 2, sim.Now());
  ath_gw->routing_table().Learn(classics_subnet, coach_ath->ip, ath_gw_lan, 2, sim.Now());
  coach_sun->SetDefaultGateway(ath_gw_lan->ip);

  std::vector<std::unique_ptr<RipDaemon>> daemons;
  for (Router* router : {cs_gw, ath_gw, coach_sun}) {
    daemons.push_back(std::make_unique<RipDaemon>(router, router, RipDaemonConfig{}));
    daemons.back()->Start();
  }
  sim.RunFor(Duration::Minutes(3));

  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient journal(&server);
  // Repeated weekly re-reads patch a mirrored copy from the change feed
  // instead of refetching the whole Journal.
  journal.EnableQueryCache();

  // --- Week 1: routine discovery while everything works. -------------------
  RipWatch ripwatch(vantage, &journal, {.watch = Duration::Minutes(2)});
  ripwatch.Run();
  Traceroute traceroute(vantage, &journal);
  traceroute.Run();

  std::printf("=== Week 1: routine Fremont discovery ===\n");
  const auto gateways = journal.GetGateways();
  for (const auto& gw : gateways) {
    for (const auto& subnet : gw.connected_subnets) {
      if (subnet == classics_subnet) {
        const InterfaceRecord* iface = journal.GetInterfaces(
            Selector::ByIp(coach_ath->ip)).empty()
            ? nullptr
            : &journal.GetInterfaces(Selector::ByIp(coach_ath->ip)).front();
        std::printf("The Journal knows: Classics subnet %s is reached via gateway interface "
                    "%s%s\n",
                    classics_subnet.ToString().c_str(), coach_ath->ip.ToString().c_str(),
                    iface != nullptr ? "" : " (interface unresolved)");
      }
    }
  }
  // Can we reach the history server right now?
  bool reachable = false;
  vantage->AddIcmpListener([&](const Ipv4Packet&, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply) {
      reachable = true;
    }
  });
  vantage->SendIcmp(history_server->primary_interface()->ip, IcmpMessage::EchoRequest(1, 1));
  sim.RunFor(Duration::Seconds(5));
  std::printf("Ping history.classics.colorado.edu: %s\n\n", reachable ? "alive" : "NO ANSWER");

  // --- Week 2: the coach unplugs his workstation. --------------------------
  coach_sun->SetUp(false);
  sim.RunFor(Duration::Days(1));

  std::printf("=== Week 2: the boss can't reach the Ancient History server ===\n");
  reachable = false;
  vantage->SendIcmp(history_server->primary_interface()->ip, IcmpMessage::EchoRequest(1, 2));
  sim.RunFor(Duration::Seconds(15));
  std::printf("Ping history.classics.colorado.edu: %s\n", reachable ? "alive" : "NO ANSWER");

  // Everything you *normally* monitor is fine:
  reachable = false;
  vantage->SendIcmp(ath_gw_lan->ip, IcmpMessage::EchoRequest(1, 3));
  sim.RunFor(Duration::Seconds(5));
  std::printf("Ping athletics-gw (the monitored router):  %s\n", reachable ? "alive" : "dead");

  // But the Journal remembers the dependency: what is the route to the
  // Classics subnet *supposed to be*? Infer it offline from the topology
  // records — exactly the tool the paper's scenario wishes for.
  auto supposed_route = InferRoute(journal.GetGateways(), cs_subnet, classics_subnet);
  std::printf("\nThe route is supposed to be:\n  %s\n", supposed_route.ToString().c_str());

  std::printf("\nJournal: route to Classics depends on these gateway interfaces:\n");
  for (const auto& gw : journal.GetGateways()) {
    bool serves_classics = false;
    for (const auto& subnet : gw.connected_subnets) {
      serves_classics |= subnet == classics_subnet;
    }
    if (!serves_classics) {
      continue;
    }
    for (RecordId iface_id : gw.interface_ids) {
      auto iface = journal.GetInterfaceById(iface_id);
      if (!iface.has_value()) {
        continue;
      }
      std::printf("%s", InterfaceViewLevel3(*iface, sim.Now()).c_str());
      if (iface->mac.has_value()) {
        auto vendor = LookupVendor(*iface->mac);
        std::printf("  → a %s box in the Athletics address range, silent for a day.\n",
                    vendor.has_value() ? std::string(*vendor).c_str() : "mystery");
      }
    }
  }

  auto stale = FindStaleInterfaces(journal.GetInterfaces(), sim.Now(), Duration::Hours(12));
  std::printf("\nStale-interface analysis flags %zu interface(s); call the Athletics "
              "department.\n",
              stale.size());

  // --- The coach plugs it back in. ------------------------------------------
  coach_sun->SetUp(true);
  sim.RunFor(Duration::Minutes(10));  // "the history server should be accessible in ten minutes"
  reachable = false;
  vantage->SendIcmp(history_server->primary_interface()->ip, IcmpMessage::EchoRequest(1, 4));
  sim.RunFor(Duration::Seconds(15));
  std::printf("\n=== After the phone call ===\nPing history.classics.colorado.edu: %s\n",
              reachable ? "alive — crisis averted" : "still dead");
  return reachable ? 0 : 1;
}
