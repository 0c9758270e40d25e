// The campus workload: a closed loop in which the simulated 111-subnet
// campus is the load. Each cycle is one simulated day of managed discovery,
// then the serving phase over the Journal the day built.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <set>

#include "perfbench/src/span_log.h"
#include "perfbench/src/workloads.h"
#include "src/explorer/dns_explorer.h"
#include "src/manager/module_registry.h"
#include "src/util/bytes.h"

namespace perfbench {

using fremont::Duration;
using fremont::SimTime;

const std::vector<ModuleKey>& ModuleKeys() {
  static const std::vector<ModuleKey> kKeys = {
      {"arpwatch", "ARPwatch"},         {"etherhostprobe", "EtherHostProbe"},
      {"seqping", "SeqPing"},           {"broadcastping", "BrdcastPing"},
      {"subnetmasks", "SubnetMasks"},   {"ripwatch", "RIPwatch"},
      {"traceroute", "Traceroute"},     {"ripprobe", "RIPprobe"},
      {"serviceprobe", "ServiceProbe"}, {"dns", "DNS"},
  };
  return kKeys;
}

void TallyReports(const std::vector<fremont::ExplorerReport>& reports, Tally& tally) {
  for (const auto& report : reports) {
    std::string key = report.module;
    for (const ModuleKey& module : ModuleKeys()) {
      if (report.module == module.display) {
        key = module.key;
      }
    }
    tally.Add("explorer." + key + ".packets", static_cast<double>(report.packets_sent));
    tally.Add("explorer." + key + ".records", report.records_written);
    tally.Add("explorer." + key + ".new_info", report.new_info);
    tally.Add("explorer.replies", static_cast<double>(report.replies_received));
  }
}

void TallySegments(const fremont::Simulator& sim, double sign, Tally& tally) {
  for (const auto& segment : sim.segments()) {
    const fremont::SegmentStats& stats = segment->stats();
    tally.Add("net.frames", sign * static_cast<double>(stats.frames_sent));
    tally.Add("net.bytes", sign * static_cast<double>(stats.bytes_sent));
    tally.Add("net.frames_dropped", sign * static_cast<double>(stats.frames_dropped));
  }
}

CampusStack::CampusStack(uint64_t seed, const std::string& checkpoint_path)
    : sim(seed),
      campus(fremont::BuildCampus(sim, params)),
      clock(&sim),
      server([this] { return clock.Now(); }),
      journal(meter.Wrap(&server)),
      manager(&sim.events(), &journal) {
  sim.RunFor(Duration::Minutes(5));  // Let RIP converge.
  if (!checkpoint_path.empty()) {
    server.EnableCheckpoint(checkpoint_path, Duration::Hours(6));
  }
  journal.EnableQueryCache();
  manager.EnableAutoCorrelation(24);
  fremont::Host* vantage = campus.vantage;
  for (const ModuleKey& module : ModuleKeys()) {
    if (std::string(module.key) != "dns") {
      manager.RegisterModule(fremont::MakeStandardRegistration(module.key, vantage, &journal));
    }
  }
  const fremont::ModuleSpec* dns_spec = fremont::FindModuleSpec("dns");
  manager.RegisterModule({"dns", dns_spec->min_interval, dns_spec->max_interval, [this, vantage]() {
                            fremont::DnsExplorerParams dns_params;
                            dns_params.network = params.class_b;
                            dns_params.server = campus.dns_host->primary_interface()->ip;
                            return std::make_unique<fremont::DnsExplorer>(vantage, &journal,
                                                                          dns_params);
                          }});
}

void RunCampusSpan(CampusStack& stack, Duration span, Tally& tally) {
  fremont::EventQueue& events = stack.sim.events();
  fremont::DiscoveryManager& manager = stack.manager;
  SpanLog& spans = SpanLog::Global();
  const SimTime deadline = events.Now() + span;
  std::vector<fremont::ExplorerReport> reports;
  while (true) {
    const std::optional<SimTime> due = manager.NextDue();
    if (!due.has_value()) {
      break;
    }
    spans.NewTrace();
    tally.Max("sim.queue_pending_max", static_cast<double>(events.PendingCount()));
    const auto advance_start = SteadyClock::now();
    const bool past_deadline = *due > deadline;
    {
      const ScopedSpan advance("sim.advance");
      if (past_deadline) {
        events.RunUntil(deadline);
      } else if (*due > events.Now()) {
        events.RunUntil(*due);
      }
    }
    tally.Add("sim.advance_s", SecondsSince(advance_start));
    if (past_deadline) {
      break;
    }
    const auto tick_start = SteadyClock::now();
    size_t launched = 0;
    {
      const ScopedSpan pass("explorer.pass");
      launched = manager.BeginTick(&reports);
      if (launched > 0) {
        events.RunWhile([&manager]() { return manager.in_flight() > 0; });
      }
    }
    tally.Add("explorer.pass_s", SecondsSince(tick_start));
    {
      const ScopedSpan end_tick("manager.end_tick");
      manager.EndTick();
    }
    tally.Sample("sweep_s", SecondsSince(tick_start));
    tally.Add("manager.ticks", 1);
    tally.Add("manager.modules_launched", static_cast<double>(launched));
    if (events.Now() >= deadline) {
      break;
    }
  }
  TallyReports(reports, tally);
}

std::string JournalDigest(const fremont::JournalServer& server) {
  fremont::ByteWriter writer;
  server.journal().EncodeAll(writer);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t byte : writer.buffer()) {
    hash = (hash ^ byte) * 0x100000001b3ull;
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016" PRIx64, hash);
  return text;
}

Cycle RunCampusCycle(const CycleOptions& options, Checks& checks, std::string* digest) {
  Cycle cycle;
  const auto setup_start = SteadyClock::now();
  CampusStack stack(options.seed, options.dir + "/fremont-journal.bin");
  cycle.setup_s = SecondsSince(setup_start);

  const auto work_start = SteadyClock::now();
  Tally& tally = cycle.tally;
  TallySegments(stack.sim, -1.0, tally);
  const uint64_t events_before = stack.sim.events().executed_count();
  const uint64_t server_ns_before = stack.meter.server_ns();
  const auto day_start = SteadyClock::now();
  RunCampusSpan(stack, Duration::Days(1), tally);
  cycle.loop_s = SecondsSince(day_start);
  tally.Sample("sim_s_per_wall_s", Duration::Days(1).ToSecondsF() / cycle.loop_s);
  // The mean tick: a day's ticks launch different module sets, so which of
  // them is the median swaps under host noise.
  const std::vector<double>& ticks = tally.Samples("sweep_s");
  tally.Sample("sweep_wall_s", std::accumulate(ticks.begin(), ticks.end(), 0.0) /
                                   static_cast<double>(std::max<size_t>(ticks.size(), 1)));
  tally.Add("journal.loop_server_s", static_cast<double>(stack.meter.server_ns() - server_ns_before) * 1e-9);
  tally.Add("sim.events", static_cast<double>(stack.sim.events().executed_count() - events_before));
  TallySegments(stack.sim, 1.0, tally);

  // The day's Journal: byte digest, and counts against the campus's truth.
  *digest = JournalDigest(stack.server);
  std::set<uint32_t> true_ips;
  for (const auto& truth : stack.campus.truth.interfaces) {
    true_ips.insert(truth.ip.value());
  }
  int unknown_ips = 0;
  for (const auto& rec : stack.journal.GetInterfaces()) {
    unknown_ips += true_ips.count(rec.ip.value()) == 0 ? 1 : 0;
  }
  std::set<std::string> subnets;
  for (const auto& rec : stack.journal.GetSubnets()) {
    subnets.insert(rec.subnet.ToString());
  }
  int missing_subnets = 0;
  for (const auto& subnet : stack.campus.truth.connected_subnets) {
    missing_subnets += subnets.count(subnet.ToString()) == 0 ? 1 : 0;
  }
  checks.Expect(unknown_ips == 0, "campus: Journal holds interfaces the campus does not have");
  checks.Expect(missing_subnets == 0, "campus: connected subnets missing from the Journal");

  {
    fremont::JournalClient loader(stack.meter.Wrap(&stack.server));
    PreloadJournal(loader, options.seed, kTopUpSubnets);
  }
  RunServingPhase(stack.server, stack.clock, stack.meter, options.seed, kServingGenerations,
                  tally, cycle.view_reads, checks);
  TallyMeter(stack.meter, tally);
  cycle.work_s = SecondsSince(work_start);
  return cycle;
}

}  // namespace perfbench
