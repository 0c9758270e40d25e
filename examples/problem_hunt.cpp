// Problem hunt: run Fremont's discovery + analysis pipeline against a subnet
// with every class of misconfiguration the paper's Table 8 lists, and print
// an operator-style report.
//
//   $ ./problem_hunt

#include <cstdio>

#include "src/analysis/conflicts.h"
#include "src/analysis/rip_analysis.h"
#include "src/analysis/staleness.h"
#include "src/explorer/arpwatch.h"
#include "src/explorer/etherhostprobe.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/subnet_mask.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/present/views.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

using namespace fremont;

int main() {
  Simulator sim(2024);
  DepartmentParams params;
  params.duplicate_ip_pairs = 2;
  params.wrong_mask_hosts = 3;
  params.promiscuous_rip_hosts = 1;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);

  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient journal(&server);
  // The analysis passes below re-read the same tables: each repeat patches
  // the mirrored copy from a change-feed delta.
  journal.EnableQueryCache();
  sim.RunUntil(SimTime::Epoch() + Duration::Hours(10));

  std::printf("Running discovery on %s ...\n", params.subnet.ToString().c_str());
  // Passive capture for the whole hunt: the watch outlasts it, and Cancel()
  // ends it.
  ArpWatch arpwatch(dept.vantage, &journal, {.watch = Duration::Days(5)});
  arpwatch.Start();
  EtherHostProbe(dept.vantage, &journal).Run();
  SubnetMaskExplorer(dept.vantage, &journal).Run();
  RipWatch(dept.vantage, &journal, {.watch = Duration::Minutes(3)}).Run();

  // A machine quietly leaves the network; keep watching for a few days so
  // its record goes stale while everyone else stays fresh.
  dept.churn->Decommission(dept.hosts[20]);
  sim.RunFor(Duration::Days(4));
  EtherHostProbe(dept.vantage, &journal).Run();
  arpwatch.Cancel();

  const auto interfaces = journal.GetInterfaces();
  const auto gateways = journal.GetGateways();
  const SimTime now = sim.Now();

  std::printf("\n================ FREMONT PROBLEM REPORT ================\n");

  std::printf("\n[1] Address conflicts\n");
  int problems = 0;
  for (const auto& conflict : FindAddressConflicts(interfaces, gateways, now)) {
    if (conflict.kind == AddressConflict::Kind::kGatewayOrProxy) {
      continue;  // Benign: multi-interface gateways.
    }
    std::printf("    %s\n", conflict.ToString().c_str());
    ++problems;
  }

  std::printf("\n[2] Subnet mask conflicts\n");
  for (const auto& conflict : FindMaskConflicts(interfaces)) {
    std::printf("    %s\n", conflict.ToString().c_str());
    ++problems;
  }

  std::printf("\n[3] Promiscuous RIP sources\n");
  for (const auto& source : FindPromiscuousRipSources(interfaces)) {
    std::printf("    %s advertises routes it does not own (MAC %s)\n",
                source.ip.ToString().c_str(),
                source.mac.has_value() ? source.mac->ToString().c_str() : "?");
    ++problems;
  }

  std::printf("\n[4] Addresses that look reclaimable (silent > 3 days)\n");
  for (const auto& stale : FindStaleInterfaces(interfaces, now, Duration::Days(3))) {
    std::printf("    %s\n", stale.ToString().c_str());
    ++problems;
  }

  std::printf("\n%d findings. Full subnet picture:\n\n%s", problems,
              InterfaceViewLevel1(interfaces, params.subnet, now).c_str());
  return problems > 0 ? 0 : 1;
}
