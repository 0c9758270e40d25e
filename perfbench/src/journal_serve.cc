// The journal_serve workload: no simulator. A seeded generator pre-loads a
// department-density Journal, then the serving phase runs over it.

#include <algorithm>
#include <numeric>

#include "perfbench/src/workloads.h"
#include "src/journal/batch_writer.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr int kMinHosts = 30;
constexpr int kMaxHosts = 40;
// One router per two subnets, two arms each: replication's member lookups
// then cost two requests per gateway, as they do for a campus router.
constexpr int kSubnetsPerRouter = 2;
constexpr int kArms = 2;

// 128.200.0.0/16: clear of both campuses, so a top-up never merges into
// records a simulated network produced.
fremont::Subnet SubnetAt(int index) {
  return fremont::Subnet(fremont::Ipv4Address(128, 200, static_cast<uint8_t>(index + 1), 0),
                         fremont::SubnetMask::FromPrefixLength(24));
}

}  // namespace

void PreloadJournal(fremont::JournalClient& client, uint64_t seed, int subnets) {
  fremont::Rng rng(seed);
  fremont::JournalBatchWriter writer(&client);
  std::vector<int> next_router_host(static_cast<size_t>(subnets), 254);
  for (int s = 0; s < subnets; ++s) {
    const fremont::Subnet subnet = SubnetAt(s);
    const int hosts = static_cast<int>(rng.Uniform(kMinHosts, kMaxHosts));
    for (int h = 1; h <= hosts; ++h) {
      fremont::InterfaceObservation obs;
      obs.ip = subnet.HostAt(static_cast<uint32_t>(h));
      obs.mac = fremont::MacAddress::FromIndex(static_cast<uint64_t>(s) * 256 + static_cast<uint64_t>(h));
      obs.dns_name = "h" + std::to_string(h) + ".dept" + std::to_string(s) + ".perfbench";
      obs.mask = subnet.mask();
      writer.StoreInterface(obs, fremont::DiscoverySource::kArpWatch);
    }
    fremont::SubnetObservation subnet_obs;
    subnet_obs.subnet = subnet;
    subnet_obs.host_count = hosts;
    writer.StoreSubnet(subnet_obs, fremont::DiscoverySource::kDns);
  }
  // Routers: one MAC on arms in several subnets, so correlation infers them.
  std::vector<int> order(static_cast<size_t>(subnets));
  std::iota(order.begin(), order.end(), 0);
  for (int r = 0; r < subnets / kSubnetsPerRouter; ++r) {
    for (int a = 0; a < kArms; ++a) {
      std::swap(order[static_cast<size_t>(a)],
                order[static_cast<size_t>(rng.Uniform(a, subnets - 1))]);
      const int s = order[static_cast<size_t>(a)];
      fremont::InterfaceObservation obs;
      obs.ip = SubnetAt(s).HostAt(static_cast<uint32_t>(next_router_host[static_cast<size_t>(s)]--));
      obs.mac = fremont::MacAddress::FromIndex(0x100000u + static_cast<uint64_t>(r));
      obs.dns_name = "gw" + std::to_string(r) + "-" + std::to_string(a) + ".perfbench";
      obs.mask = SubnetAt(s).mask();
      writer.StoreInterface(obs, fremont::DiscoverySource::kArpWatch);
    }
  }
  writer.Flush();
}

Cycle RunJournalServeCycle(const CycleOptions& options, Checks& checks) {
  Cycle cycle;
  const auto setup_start = SteadyClock::now();
  PhaseClock clock;
  clock.Set(fremont::SimTime::Epoch() + fremont::Duration::Days(1));
  JournalMeter meter;
  fremont::JournalServer server([&clock] { return clock.Now(); });
  server.EnableCheckpoint(options.dir + "/fremont-journal.bin", fremont::Duration::Hours(2));
  {
    fremont::JournalClient loader(meter.Wrap(&server));
    PreloadJournal(loader, options.seed, kDepartmentSubnets);
  }
  const double preload_s = SecondsSince(setup_start);

  const auto work_start = SteadyClock::now();
  const uint64_t server_ns_before = meter.server_ns();
  const ServingTimes times = RunServingPhase(server, clock, meter, options.seed,
                                             kServingGenerations, cycle.tally, cycle.view_reads,
                                             checks);
  cycle.setup_s = preload_s + times.startup_s;
  cycle.loop_s = times.loop_s;
  Tally& tally = cycle.tally;
  tally.Sample("sweep_wall_s", Median(tally.Samples("generation_s")));
  tally.Sample("sim_s_per_wall_s", tally.Total("serve.sim_s") / times.loop_s);
  tally.Add("journal.loop_server_s", static_cast<double>(meter.server_ns() - server_ns_before) * 1e-9);
  TallyMeter(meter, tally);
  cycle.work_s = SecondsSince(work_start) - times.startup_s;
  return cycle;
}

}  // namespace perfbench
