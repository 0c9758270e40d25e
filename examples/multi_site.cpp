// Multi-site Fremont: "the system can be replicated at multiple sites,
// exploring different networks, and sharing information among the
// replicated components" (paper, System Description).
//
// Two independent Fremont installations — CU Boulder (128.138/16) and a
// neighbour campus (129.82/16) — each discover their own network, then pull
// each other's Journals. Either site can afterwards answer questions about
// both networks and export a combined topology.
//
//   $ ./multi_site

#include <cstdio>

#include "src/explorer/ripwatch.h"
#include "src/explorer/traceroute.h"
#include "src/journal/client.h"
#include "src/journal/replicate.h"
#include "src/journal/server.h"
#include "src/present/views.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

using namespace fremont;

namespace {

struct Site {
  std::string label;
  Simulator sim;
  Campus campus;
  std::unique_ptr<JournalServer> server;
  std::unique_ptr<JournalClient> journal;

  Site(std::string name, uint64_t seed, Ipv4Address class_b, int subnets)
      : label(std::move(name)), sim(seed) {
    CampusParams params;
    params.class_b = class_b;
    params.assigned_subnets = subnets;
    params.connected_subnets = subnets;
    params.faulty_gateway_subnets = 0;
    params.dns_registered_subnets = subnets;
    params.dns_named_gateways = subnets / 3;
    campus = BuildCampus(sim, params);
    server = std::make_unique<JournalServer>([this]() { return sim.Now(); });
    journal = std::make_unique<JournalClient>(server.get());
    // Each site's client is the only mutator of its own server, so
    // generation-exclusive query caching is sound; replication pulls from the
    // peer then revalidate with conditional gets.
    journal->EnableQueryCache();
    sim.RunFor(Duration::Minutes(5));
  }

  void Discover() {
    RipWatch ripwatch(campus.vantage, journal.get(), {.watch = Duration::Minutes(2)});
    std::printf("[%s] %s\n", label.c_str(), ripwatch.Run().Summary().c_str());
    Traceroute trace(campus.vantage, journal.get());
    std::printf("[%s] %s\n", label.c_str(), trace.Run().Summary().c_str());
  }

  void Report() const {
    JournalStats stats = journal->GetStats();
    std::printf("[%s] journal now holds %u interfaces, %u gateways, %u subnets\n",
                label.c_str(), static_cast<unsigned>(stats.interface_count),
                static_cast<unsigned>(stats.gateway_count),
                static_cast<unsigned>(stats.subnet_count));
  }
};

}  // namespace

int main() {
  Site boulder("boulder", 1993, Ipv4Address(128, 138, 0, 0), 10);
  Site neighbour("neighbour", 1870, Ipv4Address(129, 82, 0, 0), 8);

  std::printf("=== Independent discovery ===\n");
  boulder.Discover();
  neighbour.Discover();
  boulder.Report();
  neighbour.Report();

  std::printf("\n=== Journal replication (change-feed incremental pulls) ===\n");
  ReplicationPeer boulder_pulls_neighbour(neighbour.journal.get());
  ReplicationPeer neighbour_pulls_boulder(boulder.journal.get());
  ReplicationStats to_boulder = boulder_pulls_neighbour.Pull(*boulder.journal);
  ReplicationStats to_neighbour = neighbour_pulls_boulder.Pull(*neighbour.journal);
  std::printf("boulder   ← neighbour: %d interfaces, %d gateways, %d subnets pulled\n",
              to_boulder.interfaces_pulled, to_boulder.gateways_pulled,
              to_boulder.subnets_pulled);
  std::printf("neighbour ← boulder:   %d interfaces, %d gateways, %d subnets pulled\n",
              to_neighbour.interfaces_pulled, to_neighbour.gateways_pulled,
              to_neighbour.subnets_pulled);
  boulder.Report();
  neighbour.Report();

  // A second pull adds nothing: the sync is incremental. It still replays
  // what neighbour learned from boulder (new to boulder's mirror of
  // neighbour), but those are echoes boulder already holds.
  ReplicationStats again = boulder_pulls_neighbour.Pull(*boulder.journal);
  std::printf("second pull adds %d new or changed record(s) (%d interface echo(es) replayed) "
              "— incremental sync works\n",
              again.new_or_changed, again.interfaces_pulled);

  // Boulder can now answer questions about BOTH networks.
  int foreign_subnets = 0;
  for (const auto& subnet : boulder.journal->GetSubnets()) {
    if (Ipv4Address(129, 82, 0, 0).value() ==
        (subnet.subnet.network().value() & 0xffff0000u)) {
      ++foreign_subnets;
    }
  }
  std::printf("\nboulder's journal knows %d subnets of the neighbour campus without ever\n"
              "having sent a packet there.\n",
              foreign_subnets);
  return foreign_subnets > 0 && again.new_or_changed == 0 ? 0 : 1;
}
