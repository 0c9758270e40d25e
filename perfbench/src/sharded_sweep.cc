// The sharded_sweep workload: all-modules-due sweeps of the 4-domain
// sharded campus through ParallelSweeper::Sweep, 4 shards on 2 worker
// threads, then the serving phase over the Journal the sweeps built.

#include <algorithm>

#include "perfbench/src/span_log.h"
#include "perfbench/src/workloads.h"
#include "src/explorer/dns_explorer.h"
#include "src/manager/module_registry.h"
#include "src/manager/parallel_sweep.h"

namespace perfbench {
namespace {

using fremont::Duration;

constexpr int kShards = 4;
constexpr int kWorkers = 2;
constexpr int kSweepsPerCycle = 10;
constexpr size_t kModulesPerSweep = 40;  // Ten modules on each of four domains.

fremont::ShardOptions Sharding(int shards, int workers) {
  fremont::ShardOptions options;
  options.shards = shards;
  options.workers = workers;
  options.window = Duration::Millis(500);
  return options;
}

fremont::ShardedCampusParams CampusParams() {
  fremont::ShardedCampusParams params;  // 4 domains, 255 interfaces.
  params.enable_traffic = true;
  params.traffic_mean_interval = Duration::Seconds(1);
  return params;
}

uint64_t TotalExecuted(fremont::Simulator& sim) {
  if (sim.runtime() == nullptr) {
    return sim.events().executed_count();
  }
  uint64_t total = 0;
  for (uint64_t n : sim.runtime()->PerShardExecuted()) {
    total += n;
  }
  return total;
}

}  // namespace

ShardedStack::ShardedStack(uint64_t seed, int shards, int workers,
                           const std::string& checkpoint_path)
    : sim(seed, Sharding(shards, workers)),
      campus(fremont::BuildShardedCampus(sim, CampusParams())),
      clock(&sim),
      server([this] { return clock.Now(); }) {
  sim.RunFor(Duration::Minutes(5));  // Let RIP converge.
  if (!checkpoint_path.empty()) {
    server.EnableCheckpoint(checkpoint_path, Duration::Hours(6));
  }
  for (const auto& domain : campus.domains) {
    clients.push_back(std::make_unique<fremont::JournalClient>(meter.Wrap(&server)));
    fremont::JournalClient* journal = clients.back().get();
    auto manager = std::make_unique<fremont::DiscoveryManager>(&sim.shard_events(domain.shard),
                                                               journal);
    fremont::Host* vantage = domain.vantage;
    for (const ModuleKey& module : ModuleKeys()) {
      if (std::string(module.key) != "dns") {
        manager->RegisterModule(fremont::MakeStandardRegistration(module.key, vantage, journal));
      }
    }
    const fremont::ModuleSpec* dns_spec = fremont::FindModuleSpec("dns");
    const fremont::Subnet network = domain.network;
    const fremont::Ipv4Address dns_ip = domain.dns_ip;
    manager->RegisterModule({"dns", dns_spec->min_interval, dns_spec->max_interval,
                             [vantage, journal, network, dns_ip]() {
                               fremont::DnsExplorerParams dns_params;
                               dns_params.network = network.network();
                               dns_params.server = dns_ip;
                               return std::make_unique<fremont::DnsExplorer>(vantage, journal,
                                                                             dns_params);
                             }});
    managers.push_back(std::move(manager));
  }
  std::vector<fremont::ExplorerReport> warm;
  Sweep(&warm);  // Journal-driven modules need records to chase.
}

size_t ShardedStack::Sweep(std::vector<fremont::ExplorerReport>* reports) {
  // Mark every module never-run so the sweep launches the full set.
  for (auto& manager : managers) {
    std::vector<fremont::ModuleSchedule> fresh = manager->ExportSchedule();
    for (auto& entry : fresh) {
      entry.ever_run = false;
    }
    manager->RestoreSchedule(fresh);
  }
  std::vector<fremont::DiscoveryManager*> ptrs;
  for (const auto& manager : managers) {
    ptrs.push_back(manager.get());
  }
  if (sim.runtime() != nullptr) {
    fremont::ParallelSweeper sweeper(sim.runtime(), ptrs);
    std::vector<fremont::ExplorerReport> swept = sweeper.Sweep();
    reports->insert(reports->end(), swept.begin(), swept.end());
    return sweeper.last_launched();
  }
  // One shard: the same launch / drive / retire phases on the single queue.
  std::vector<std::vector<fremont::ExplorerReport>> per_manager(managers.size());
  size_t launched = 0;
  for (size_t i = 0; i < managers.size(); ++i) {
    launched += managers[i]->BeginTick(&per_manager[i]);
  }
  if (launched > 0) {
    sim.events().RunWhile([&ptrs]() {
      int total = 0;
      for (const fremont::DiscoveryManager* manager : ptrs) {
        total += manager->in_flight();
      }
      return total > 0;
    });
  }
  for (size_t i = 0; i < managers.size(); ++i) {
    managers[i]->EndTick();
    reports->insert(reports->end(), per_manager[i].begin(), per_manager[i].end());
  }
  return launched;
}

Cycle RunShardedSweepCycle(const CycleOptions& options, Checks& checks) {
  Cycle cycle;
  const auto setup_start = SteadyClock::now();
  ShardedStack stack(options.seed, kShards, kWorkers, options.dir + "/fremont-journal.bin");
  cycle.setup_s = SecondsSince(setup_start);

  const auto work_start = SteadyClock::now();
  Tally& tally = cycle.tally;
  fremont::ShardedEventQueue& runtime = *stack.sim.runtime();
  TallySegments(stack.sim, -1.0, tally);
  const uint64_t events_before = TotalExecuted(stack.sim);
  const std::vector<uint64_t> shard_before = runtime.PerShardExecuted();
  const uint64_t barriers_before = runtime.window_barriers();
  const uint64_t cross_before = runtime.cross_shard_posted();
  const uint64_t idle_before = runtime.worker_idle_us();
  const uint64_t server_ns_before = stack.meter.server_ns();
  SpanLog& spans = SpanLog::Global();
  std::vector<fremont::ExplorerReport> reports;
  const auto loop_start = SteadyClock::now();
  for (int i = 0; i < kSweepsPerCycle; ++i) {
    spans.NewTrace();
    size_t pending = 0;
    for (int s = 0; s < runtime.shard_count(); ++s) {
      pending += runtime.queue(s).PendingCount();
    }
    tally.Max("sim.queue_pending_max", static_cast<double>(pending));
    const fremont::SimTime sim_start = stack.sim.Now();
    const auto sweep_start = SteadyClock::now();
    size_t launched = 0;
    {
      const ScopedSpan sweep("runtime.sweep");
      spans.set_remote_parent(sweep.id());
      launched = stack.Sweep(&reports);
      spans.set_remote_parent(0);
    }
    const double wall = SecondsSince(sweep_start);
    tally.Sample("sweep_s", wall);
    tally.Add("sweep.sim_s", (stack.sim.Now() - sim_start).ToSecondsF());
    tally.Add("sweep.wall_s", wall);
    tally.Add("manager.ticks", static_cast<double>(stack.managers.size()));
    tally.Add("manager.modules_launched", static_cast<double>(launched));
    checks.Expect(launched == kModulesPerSweep, "sharded_sweep: a sweep did not launch all 40 modules");
  }
  cycle.loop_s = SecondsSince(loop_start);
  tally.Add("explorer.pass_s", cycle.loop_s);
  tally.Sample("sim_s_per_wall_s", tally.Total("sweep.sim_s") / cycle.loop_s);
  tally.Sample("sweep_wall_s", Median(tally.Samples("sweep_s")));
  tally.Add("journal.loop_server_s", static_cast<double>(stack.meter.server_ns() - server_ns_before) * 1e-9);
  tally.Add("sim.events", static_cast<double>(TotalExecuted(stack.sim) - events_before));
  TallySegments(stack.sim, 1.0, tally);
  TallyReports(reports, tally);

  const uint64_t cross_shard = runtime.cross_shard_posted() - cross_before;
  tally.Add("runtime.window_barriers", static_cast<double>(runtime.window_barriers() - barriers_before));
  tally.Add("runtime.cross_shard_events", static_cast<double>(cross_shard));
  tally.Add("runtime.worker_idle_s", static_cast<double>(runtime.worker_idle_us() - idle_before) * 1e-6);
  const std::vector<uint64_t> shard_after = runtime.PerShardExecuted();
  double max_shard = 0.0;
  double sum_shard = 0.0;
  for (size_t s = 0; s < shard_after.size(); ++s) {
    const auto executed = static_cast<double>(shard_after[s] - shard_before[s]);
    max_shard = std::max(max_shard, executed);
    sum_shard += executed;
  }
  tally.Sample("runtime.shard_imbalance",
               sum_shard > 0.0 ? max_shard / (sum_shard / static_cast<double>(shard_after.size())) : 0.0);
  checks.Expect(cross_shard > 0, "sharded_sweep: no cross-shard events");

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
