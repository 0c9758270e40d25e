// Table 8 reproduction: "Problems Uncovered by Prototype".
//
// Builds a department subnet with every fault class injected, runs the
// discovery pipeline, then runs the analysis programs and checks that each
// of the paper's five problem classes is flagged:
//
//   IP addresses no longer in use; hardware changes; inconsistent network
//   masks; duplicate address assignments; promiscuous RIP hosts.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/conflicts.h"
#include "src/analysis/rip_analysis.h"
#include "src/analysis/staleness.h"
#include "src/explorer/arpwatch.h"
#include "src/explorer/etherhostprobe.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/subnet_mask.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

namespace fremont {

int Main() {
  bench::PrintHeader("Table 8: Problems Uncovered by Prototype", "Table 8");

  Simulator sim(19930501);
  DepartmentParams params;
  params.duplicate_ip_pairs = 1;
  params.wrong_mask_hosts = 2;
  params.promiscuous_rip_hosts = 1;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);
  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient client(&server);

  // Phase 1 (day 1, daytime): full discovery. ARPwatch's watch outlasts the
  // week-long window; Cancel() ends it.
  sim.RunUntil(SimTime::Epoch() + Duration::Hours(10));
  ArpWatch arpwatch(dept.vantage, &client, {.watch = Duration::Days(8)});
  arpwatch.Start();
  EtherHostProbe(dept.vantage, &client).Run();
  SubnetMaskExplorer(dept.vantage, &client).Run();
  RipWatch ripwatch(dept.vantage, &client, {.watch = Duration::Minutes(3)});
  ripwatch.Run();

  // Phase 2: a machine leaves the network for good ("IP no longer in use"),
  // and another machine's Ethernet card is swapped ("hardware change").
  Host* departed = dept.hosts[5];
  dept.churn->Decommission(departed);
  Host* victim = dept.hosts[6];
  const Ipv4Address swapped_ip = victim->primary_interface()->ip;
  dept.churn->Decommission(victim);
  Host* replacement = sim.CreateHost(victim->name() + "-new-card");
  replacement->AttachTo(dept.segment, swapped_ip, params.subnet.mask(),
                        MacAddress::FromOui(0x02608c /* 3Com */, 0xbeef));
  replacement->SetDefaultGateway(params.subnet.HostAt(1));
  dept.churn->AddHost(replacement, /*always_on=*/true);
  dept.traffic->AddHost(replacement, Duration::Minutes(15));

  // Phase 3 (a week later): re-discover. ARPwatch kept running throughout,
  // so the Journal remembers the old bindings far beyond any ARP cache TTL.
  sim.RunFor(Duration::Days(7));
  EtherHostProbe(dept.vantage, &client).Run();
  arpwatch.Cancel();

  // Analysis programs.
  const auto interfaces = client.GetInterfaces();
  const auto gateways = client.GetGateways();
  const SimTime now = sim.Now();

  const auto stale = FindStaleInterfaces(interfaces, now, Duration::Days(3));
  const auto conflicts = FindAddressConflicts(interfaces, gateways, now, Duration::Hours(36));
  const auto mask_conflicts = FindMaskConflicts(interfaces);
  const auto promiscuous = FindPromiscuousRipSources(interfaces);

  int duplicates = 0, hardware_changes = 0;
  for (const auto& conflict : conflicts) {
    if (conflict.kind == AddressConflict::Kind::kDuplicateIp) {
      ++duplicates;
    } else if (conflict.kind == AddressConflict::Kind::kHardwareChange) {
      ++hardware_changes;
    }
  }
  int mask_dissenters = 0;
  for (const auto& conflict : mask_conflicts) {
    mask_dissenters += static_cast<int>(conflict.dissenters.size());
  }

  bool found_departed = false;
  for (const auto& record : stale) {
    if (record.record.ip == departed->primary_interface()->ip) {
      found_departed = true;
    }
  }

  std::printf("%-36s %-10s %s\n", "Problem class", "Found", "Details");
  std::printf("%-36s %-10s %s\n", "-------------", "-----", "-------");
  std::printf("%-36s %-10d silent > 3 days (incl. departed host: %s)\n",
              "IP addresses no longer in use", static_cast<int>(stale.size()),
              found_departed ? "yes" : "no");
  std::printf("%-36s %-10d same IP, new MAC, old record silent\n", "Hardware changes",
              hardware_changes);
  std::printf("%-36s %-10d dissenting interfaces\n", "Inconsistent network masks",
              mask_dissenters);
  std::printf("%-36s %-10d both claimants recently alive\n", "Duplicate address assignments",
              duplicates);
  std::printf("%-36s %-10d flagged RIP sources\n", "Promiscuous RIP hosts",
              static_cast<int>(promiscuous.size()));

  for (const auto& conflict : conflicts) {
    std::printf("    %s\n", conflict.ToString().c_str());
  }
  for (const auto& conflict : mask_conflicts) {
    std::printf("    %s\n", conflict.ToString().c_str());
  }

  const bool shape_ok = !stale.empty() && found_departed && hardware_changes >= 1 &&
                        mask_dissenters >= 1 && duplicates >= 1 && promiscuous.size() == 1;
  std::printf("\nAll five problem classes of Table 8 uncovered: %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}

}  // namespace fremont

int main() { return fremont::Main(); }
