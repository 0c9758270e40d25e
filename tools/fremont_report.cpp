// fremont_report: offline analysis of a Journal checkpoint.
//
// The Journal Server checkpoints its store to disk; this tool loads such a
// file and runs the presentation and analysis programs against it — no
// network (simulated or otherwise) required. The "now" reference for
// staleness is the newest verification timestamp in the file.
//
//   fremont_report <journal-file> dump
//   fremont_report <journal-file> interfaces <network/prefix>
//   fremont_report <journal-file> subnet <subnet/prefix>
//   fremont_report <journal-file> topology [dot|snm]
//   fremont_report <journal-file> problems
//   fremont_report <journal-file> utilization
//   fremont_report <journal-file> stats
//   fremont_report <journal-file> --telemetry [telemetry-file]
//   fremont_report modules
//   fremont_report trace <trace-id> [telemetry-file]
//   fremont_report --chrome-trace <out.json> [telemetry-file]
//
// --telemetry prints the telemetry JSON document the discovery run exported
// next to its checkpoint (examples/campus_discovery writes
// fremont-telemetry.json into its output directory). The default path is
// "fremont-telemetry.json" in the journal file's directory.
//
// "trace" and "--chrome-trace" read the trace events embedded in such a
// telemetry document (default: ./fremont-telemetry.json) — no journal needed.
// "trace" prints the causal provenance view for one trace id;
// "--chrome-trace" writes the whole event buffer as Chrome trace_event JSON
// for chrome://tracing / Perfetto.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/conflicts.h"
#include "src/analysis/rip_analysis.h"
#include "src/analysis/route_inference.h"
#include "src/analysis/staleness.h"
#include "src/analysis/utilization.h"
#include "src/journal/client.h"
#include "src/journal/journal.h"
#include "src/journal/server.h"
#include "src/manager/module_registry.h"
#include "src/manager/schedule.h"
#include "src/present/views.h"
#include "src/serve/views.h"
#include "src/telemetry/chrome_export.h"
#include "src/telemetry/export.h"

using namespace fremont;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <journal-file> <command> [args]\n"
               "commands:\n"
               "  dump                        raw journal contents\n"
               "  interfaces <net/prefix>     level-1 interface view\n"
               "  subnet <subnet/prefix>      level-2 subnet detail\n"
               "  topology [dot|snm]          topology export (default dot)\n"
               "  problems                    run every analysis program\n"
               "  utilization                 subnet occupancy report\n"
               "  route <from/prefix> <to/prefix>  inferred gateway path\n"
               "  vendors                     interface counts by manufacturer\n"
               "  stats                       record counts and memory use\n"
               "  --telemetry [file]          telemetry JSON exported by the discovery run\n"
               "                              (default: fremont-telemetry.json beside the journal)\n"
               "or, without a journal file:\n"
               "  modules                     standard Explorer Module registry and intervals\n"
               "  trace <trace-id> [file]     causal provenance of one trace, from the trace\n"
               "                              events in a telemetry JSON document\n"
               "                              (default: ./fremont-telemetry.json)\n"
               "  --chrome-trace <out> [file] write those events as Chrome trace_event JSON\n",
               argv0);
  return 2;
}

int PrintModules() {
  std::printf("%-16s %12s %12s\n", "module", "min-interval", "max-interval");
  for (const auto& spec : StandardModuleSpecs()) {
    std::printf("%-16s %12s %12s\n", spec.name.c_str(),
                FormatScheduleDuration(spec.min_interval).c_str(),
                FormatScheduleDuration(spec.max_interval).c_str());
  }
  return 0;
}

int PrintTelemetry(const std::string& journal_path, const char* explicit_path) {
  std::string path;
  if (explicit_path != nullptr) {
    path = explicit_path;
  } else {
    const size_t slash = journal_path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : journal_path.substr(0, slash);
    path = dir + "/fremont-telemetry.json";
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot load telemetry from %s\n", path.c_str());
    return 1;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string document = contents.str();
  const std::string expected_prefix =
      std::string("{\"schema\": \"") + telemetry::kJsonSchemaName + "\"";
  if (document.compare(0, expected_prefix.size(), expected_prefix) != 0) {
    std::fprintf(stderr, "error: %s is not a %s document\n", path.c_str(),
                 telemetry::kJsonSchemaName);
    return 1;
  }
  std::fputs(document.c_str(), stdout);
  return 0;
}

// Loads the trace events out of a fremont.telemetry.v1 document.
int LoadTraceEvents(const char* path, std::vector<telemetry::TraceEvent>* events) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot load telemetry from %s\n", path);
    return 1;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (!telemetry::ParseTelemetryTraceEvents(contents.str(), events)) {
    std::fprintf(stderr, "error: %s is not a %s document\n", path, telemetry::kJsonSchemaName);
    return 1;
  }
  return 0;
}

int PrintTraceProvenance(const char* id_arg, const char* file_arg) {
  char* end = nullptr;
  const uint64_t trace_id = std::strtoull(id_arg, &end, 10);
  if (end == id_arg || *end != '\0' || trace_id == 0) {
    std::fprintf(stderr, "error: bad trace id %s\n", id_arg);
    return 2;
  }
  std::vector<telemetry::TraceEvent> events;
  if (const int rc = LoadTraceEvents(file_arg, &events); rc != 0) {
    return rc;
  }
  std::printf("%s", TraceProvenanceView(events, trace_id).c_str());
  return 0;
}

int WriteChromeTrace(const char* out_path, const char* file_arg) {
  std::vector<telemetry::TraceEvent> events;
  if (const int rc = LoadTraceEvents(file_arg, &events); rc != 0) {
    return rc;
  }
  const std::string json = telemetry::ExportChromeTrace(events);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  out << json;
  std::fprintf(stderr, "%zu event(s) -> %s\n", events.size(), out_path);
  return 0;
}

SimTime NewestVerification(const Journal& journal) {
  SimTime newest;
  for (const auto& rec : journal.AllInterfaces()) {
    newest = std::max(newest, rec.ts.last_verified);
  }
  for (const auto& rec : journal.AllSubnets()) {
    newest = std::max(newest, rec.ts.last_verified);
  }
  return newest;
}

// Both problem paths — direct analysis and the serving layer's materialized
// view — render through serve::RenderProblems, so their output is
// byte-identical by construction.
int RunProblems(JournalClient& client, SimTime now) {
  const serve::ProblemsRender render =
      serve::RenderProblems(client.GetInterfaces(), client.GetGateways(), now);
  std::fputs(render.text.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Journal-free commands come first: "modules" describes the registry, and
  // the trace commands read a telemetry document instead of a checkpoint.
  if (argc >= 2 && std::strcmp(argv[1], "modules") == 0) {
    return PrintModules();
  }
  if (argc >= 3 && std::strcmp(argv[1], "trace") == 0) {
    return PrintTraceProvenance(argv[2], argc >= 4 ? argv[3] : "fremont-telemetry.json");
  }
  if (argc >= 3 && std::strcmp(argv[1], "--chrome-trace") == 0) {
    return WriteChromeTrace(argv[2], argc >= 4 ? argv[3] : "fremont-telemetry.json");
  }
  if (argc < 3) {
    return Usage(argv[0]);
  }
  // The checkpoint is served through the full server+client stack, so the
  // analysis programs below read it as they would a live Journal.
  SimTime now;
  JournalServer server([&now] { return now; });
  if (!server.journal().LoadFromFile(argv[1])) {
    std::fprintf(stderr, "error: cannot load journal from %s\n", argv[1]);
    return 1;
  }
  now = NewestVerification(server.journal());
  JournalClient client(&server);
  const std::string command = argv[2];

  if (command == "--telemetry" || command == "telemetry") {
    return PrintTelemetry(argv[1], argc >= 4 ? argv[3] : nullptr);
  }
  if (command == "dump") {
    std::printf("%s", DumpJournal(client.GetInterfaces(), client.GetGateways(),
                                  client.GetSubnets(), now)
                          .c_str());
    return 0;
  }
  if (command == "interfaces") {
    if (argc < 4) {
      return Usage(argv[0]);
    }
    auto network = Subnet::Parse(argv[3]);
    if (!network.has_value()) {
      std::fprintf(stderr, "error: bad network %s\n", argv[3]);
      return 1;
    }
    std::printf("%s", InterfaceViewLevel1(client.GetInterfaces(), *network, now).c_str());
    return 0;
  }
  if (command == "subnet") {
    if (argc < 4) {
      return Usage(argv[0]);
    }
    auto subnet = Subnet::Parse(argv[3]);
    if (!subnet.has_value()) {
      std::fprintf(stderr, "error: bad subnet %s\n", argv[3]);
      return 1;
    }
    std::printf("%s", InterfaceViewLevel2(client.GetInterfaces(), *subnet, now).c_str());
    return 0;
  }
  if (command == "topology") {
    const bool snm = argc >= 4 && std::strcmp(argv[3], "snm") == 0;
    const auto interfaces = client.GetInterfaces();
    const auto gateways = client.GetGateways();
    const auto subnets = client.GetSubnets();
    std::printf("%s", snm ? ExportSunNetManager(gateways, subnets, interfaces).c_str()
                          : ExportGraphvizDot(gateways, subnets, interfaces).c_str());
    return 0;
  }
  if (command == "problems") {
    return RunProblems(client, now);
  }
  if (command == "utilization") {
    auto report = AnalyzeUtilization(client.GetSubnets(), client.GetInterfaces(), now);
    for (const auto& row : report) {
      std::printf("%s\n", row.ToString().c_str());
    }
    auto crowded = FindCrowdedSubnets(report);
    std::printf("\n%zu subnet(s) above 80%% occupancy.\n", crowded.size());
    return 0;
  }
  if (command == "route") {
    if (argc < 5) {
      return Usage(argv[0]);
    }
    auto from = Subnet::Parse(argv[3]);
    auto to = Subnet::Parse(argv[4]);
    if (!from.has_value() || !to.has_value()) {
      std::fprintf(stderr, "error: bad subnet arguments\n");
      return 1;
    }
    auto route = InferRoute(client.GetGateways(), *from, *to);
    std::printf("%s\n", route.ToString().c_str());
    return route.found ? 0 : 3;
  }
  if (command == "vendors") {
    std::printf("%s", VendorInventory(client.GetInterfaces()).c_str());
    return 0;
  }
  if (command == "stats") {
    const JournalStats stats = client.GetStats();
    const JournalMemoryUsage usage = server.journal().MemoryUsage();
    std::printf("interfaces: %zu\ngateways:   %zu\nsubnets:    %zu\nmemory:     %.1f KB\n",
                stats.interface_count, stats.gateway_count, stats.subnet_count,
                static_cast<double>(usage.total_bytes) / 1024.0);
    return 0;
  }
  return Usage(argv[0]);
}
