// Campus discovery: the full Fremont system end to end.
//
// Builds the 111-subnet campus, registers all ten Explorer Modules with
// the Discovery Manager, and lets the manager run them on its adaptive
// schedule for three simulated days. The Journal checkpoints to disk, the
// startup/history file is written the way the 1993 prototype maintained it,
// and the discovered topology is exported in both SunNet Manager and
// Graphviz formats.
//
//   $ ./campus_discovery [output-directory]

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "src/explorer/arpwatch.h"
#include "src/explorer/broadcast_ping.h"
#include "src/explorer/dns_explorer.h"
#include "src/explorer/etherhostprobe.h"
#include "src/explorer/rip_probe.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/service_probe.h"
#include "src/explorer/seq_ping.h"
#include "src/explorer/subnet_mask.h"
#include "src/explorer/traceroute.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/manager/correlate.h"
#include "src/manager/discovery_manager.h"
#include "src/manager/module_registry.h"
#include "src/present/views.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"
#include "src/telemetry/chrome_export.h"
#include "src/telemetry/export.h"

using namespace fremont;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  Simulator sim(1993);
  CampusParams params;
  Campus campus = BuildCampus(sim, params);
  sim.RunFor(Duration::Minutes(5));  // Let RIP converge.

  JournalServer server([&sim]() { return sim.Now(); });
  server.EnableCheckpoint(out_dir + "/fremont-journal.bin", Duration::Hours(6));
  JournalClient journal(&server);
  // Whole-table reads between module runs patch a mirrored copy from the
  // change feed instead of refetching every record.
  journal.EnableQueryCache();
  Host* vantage = campus.vantage;

  // Register all ten modules with the paper's Table 4 intervals. Every due
  // module launches into one event-queue pass per tick, so their probe waits
  // overlap instead of running back to back.
  DiscoveryManager manager(&sim.events(), &journal);
  // Correlate incrementally after every tick: each pass folds in only the
  // records the tick changed (the Journal change feed), so freshly observed
  // gateways are inferred within the tick that saw them, not at day end.
  manager.EnableAutoCorrelation(24);
  for (const char* name : {"arpwatch", "etherhostprobe", "seqping", "broadcastping",
                           "subnetmasks", "ripwatch", "traceroute", "ripprobe",
                           "serviceprobe"}) {
    manager.RegisterModule(MakeStandardRegistration(name, vantage, &journal));
  }
  // DNS needs site knowledge (the zone and its server) the registry cannot
  // supply, so it gets a bespoke factory with the standard interval band.
  const ModuleSpec* dns_spec = FindModuleSpec("dns");
  manager.RegisterModule({"dns", dns_spec->min_interval, dns_spec->max_interval, [&]() {
                            DnsExplorerParams dns_params;
                            dns_params.network = params.class_b;
                            dns_params.server = campus.dns_host->primary_interface()->ip;
                            return std::make_unique<DnsExplorer>(vantage, &journal, dns_params);
                          }});

  // Resume a previous schedule if one exists (the startup/history file).
  const std::string schedule_path = out_dir + "/fremont-schedule.txt";
  if (auto history = LoadScheduleFile(schedule_path); history.has_value()) {
    manager.RestoreSchedule(*history);
    std::printf("Restored schedule history from %s\n", schedule_path.c_str());
  }

  // Three simulated days of managed discovery; the manager correlates
  // incrementally after every tick, so the day-end report is already current.
  for (int day = 1; day <= 3; ++day) {
    auto reports = manager.RunFor(Duration::Days(1));
    const CorrelationReport& correlation = manager.last_correlation();
    std::printf("--- day %d: %zu module runs ---\n", day, reports.size());
    for (const auto& report : reports) {
      std::printf("  %s\n", report.Summary().c_str());
    }
    std::printf("  correlation: %d gateway(s) inferred from shared MACs, "
                "%zu subnets still lack a gateway, %zu interfaces lack a mask\n",
                correlation.gateways_inferred_from_mac,
                correlation.subnets_without_gateway.size(),
                correlation.interfaces_without_mask.size());
  }
  SaveScheduleFile(schedule_path, manager.ExportSchedule());

  // What do we know now?
  JournalStats stats = journal.GetStats();
  std::printf("\nAfter 3 days: %u interfaces, %u gateways, %u subnets in the Journal "
              "(ground truth: %zu connected subnets).\n",
              static_cast<unsigned>(stats.interface_count),
              static_cast<unsigned>(stats.gateway_count),
              static_cast<unsigned>(stats.subnet_count),
              campus.truth.connected_subnets.size());

  // Exports.
  const auto interfaces = journal.GetInterfaces();
  const auto gateways = journal.GetGateways();
  const auto subnets = journal.GetSubnets();
  {
    std::ofstream snm(out_dir + "/fremont-topology.snm");
    snm << ExportSunNetManager(gateways, subnets, interfaces);
    std::ofstream dot(out_dir + "/fremont-topology.dot");
    dot << ExportGraphvizDot(gateways, subnets, interfaces);
    // Telemetry for the whole run; fremont_report --telemetry reads this,
    // and fremont_report trace/--chrome-trace read its embedded trace events.
    std::ofstream telemetry_out(out_dir + "/fremont-telemetry.json");
    telemetry_out << telemetry::ExportJson();
    // The same events, ready for chrome://tracing / Perfetto.
    std::ofstream chrome_out(out_dir + "/fremont-chrome-trace.json");
    chrome_out << telemetry::ExportChromeTrace(telemetry::Tracer::Global().Events());
  }
  std::printf("Wrote %s/fremont-topology.{snm,dot}, fremont-telemetry.json, "
              "fremont-chrome-trace.json, journal checkpoint, and schedule file.\n",
              out_dir.c_str());
  std::printf("\nSchedule after adaptation:\n%s",
              FormatScheduleFile(manager.ExportSchedule()).c_str());
  std::printf("\n%s", RuntimeStatisticsView().c_str());
  return 0;
}
