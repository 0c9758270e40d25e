// fremont_serve: the push-subscription serving layer, end to end.
//
// One discovery pipeline feeds a Journal; a long-lived ServeService tails the
// change feed, keeps correlation + the materialized views warm, and pushes
// view invalidations to a fleet of subscribed dashboards. Every dashboard
// read is served from the published snapshot — nobody re-runs the analysis.
//
//   $ ./fremont_serve [subscribers]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/explorer/arpwatch.h"
#include "src/explorer/etherhostprobe.h"
#include "src/explorer/subnet_mask.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/serve/serve.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

using namespace fremont;

int main(int argc, char** argv) {
  const int n_subscribers = argc >= 2 ? std::atoi(argv[1]) : 16;

  Simulator sim(2026);
  DepartmentParams params;
  params.duplicate_ip_pairs = 1;
  params.wrong_mask_hosts = 2;
  DepartmentSubnet dept = BuildDepartmentSubnet(sim, params);

  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient journal(&server);
  sim.RunUntil(SimTime::Epoch() + Duration::Hours(1));

  serve::ServeService service(&server, [&sim]() { return sim.Now(); });

  // A fleet of dashboards subscribes before any data exists; the first
  // refresh catches them all up with one push each.
  JournalClient sub_client(&server);
  std::vector<std::unique_ptr<serve::ServeSubscriber>> fleet;
  fleet.reserve(static_cast<size_t>(n_subscribers));
  for (int i = 0; i < n_subscribers; ++i) {
    fleet.push_back(std::make_unique<serve::ServeSubscriber>(&service, &sub_client));
    if (!fleet.back()->Subscribe(serve::kAllViewsMask)) {
      std::fprintf(stderr, "subscribe %d failed\n", i);
      return 1;
    }
  }
  std::printf("%zu subscriber(s) connected\n", service.subscriber_count());

  // Three discovery rounds; after each, ONE serving refresh fans out to the
  // whole fleet.
  int total_pushes = 0;
  for (int round = 0; round < 3; ++round) {
    // The watch outlasts the round; Cancel() ends it.
    ArpWatch arpwatch(dept.vantage, &journal, {.watch = Duration::Hours(3)});
    arpwatch.Start();
    EtherHostProbe(dept.vantage, &journal).Run();
    if (round == 1) {
      SubnetMaskExplorer(dept.vantage, &journal).Run();
    }
    if (round == 2) {
      dept.churn->Decommission(dept.hosts[7]);
    }
    sim.RunFor(Duration::Hours(2));
    arpwatch.Cancel();

    const auto result = service.Refresh();
    total_pushes += result.pushes;
    std::printf("round %d: generation=%llu rebuilt=%s pushes=%d\n", round,
                static_cast<unsigned long long>(result.generation),
                result.views_rebuilt ? "yes" : "no", result.pushes);
  }

  // A quiescent refresh: nothing changed, nobody is pushed.
  const auto idle = service.Refresh();
  std::printf("idle refresh: rebuilt=%s pushes=%d\n", idle.views_rebuilt ? "yes" : "no",
              idle.pushes);

  // Every dashboard reads straight from the snapshot.
  const auto snap = service.ReadView(serve::ViewKind::kProblems);
  if (snap == nullptr) {
    std::fprintf(stderr, "no snapshot published\n");
    return 1;
  }
  std::printf("\n%s", snap->view(serve::ViewKind::kProblems).c_str());
  std::printf("\nsnapshot generation %llu, %d finding(s), %d push(es) total\n",
              static_cast<unsigned long long>(snap->generation), snap->problem_findings,
              total_pushes);

  // Every subscriber got at least the catch-up push; a quiescent refresh
  // pushes nothing; the warm problems view actually found the seeded faults.
  const bool ok = total_pushes >= n_subscribers && idle.pushes == 0 &&
                  snap->problem_findings > 0;
  return ok ? 0 : 1;
}
