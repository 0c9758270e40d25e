// Incremental analysis pipeline benchmarks: the same repeated
// analyze-while-discovery-trickles workload driven two ways.
//
//  - Full: every pass refetches every interface and subnet over the wire,
//    runs the from-scratch Correlate(), and re-groups everything for
//    FindMaskConflicts. This is what every pre-change-feed consumer paid.
//  - Incremental: a persistent CorrelationState pulls only the records the
//    trickle changed (kGetChangedSince), and the query cache repairs its
//    cached snapshot from the same deltas instead of refetching.
//
// Between passes a small trickle of stores mutates K interfaces — the
// steady-state shape of managed discovery, where a tick touches a handful of
// records in a Journal holding hundreds.
//
// Writes BENCH_incremental_analysis.json with wall time per pass for both
// modes plus explicit wire-byte totals over a fixed 50-pass run of each, so
// CI can trend the bytes-on-the-wire reduction next to the speedup.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "src/analysis/conflicts.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/manager/correlate.h"

namespace fremont {
namespace {

// Bench-only series.
constexpr telemetry::MetricName kIncrementalSpeedupX100{"bench/incremental_speedup_x100"};
constexpr telemetry::MetricName kIncrementalWireReductionX100{
    "bench/incremental_wire_reduction_x100"};
constexpr telemetry::MetricName kWireBytesFull50Passes{"bench/wire_bytes_full_50_passes"};
constexpr telemetry::MetricName kWireBytesIncremental50Passes{
    "bench/wire_bytes_incremental_50_passes"};

// Campus-scale working set: 100 subnets of 6 hosts each, plus 20 two-armed
// routers whose shared MACs give Correlate real gateway groups to infer.
constexpr uint32_t kSubnets = 100;
constexpr uint32_t kHostsPerSubnet = 6;
constexpr uint32_t kRouters = 20;
constexpr uint32_t kTricklePerPass = 8;

InterfaceObservation HostObs(uint32_t subnet, uint32_t host) {
  InterfaceObservation obs;
  obs.ip = Ipv4Address(0x808a0000u + (subnet << 8) + host + 1);
  obs.mac = MacAddress::FromIndex(subnet * kHostsPerSubnet + host);
  obs.dns_name = "host" + std::to_string(subnet) + "-" + std::to_string(host) +
                 ".colorado.edu";
  // A couple of dissenting masks per campus keep FindMaskConflicts honest.
  obs.mask = SubnetMask::FromPrefixLength((subnet * kHostsPerSubnet + host) % 97 == 0 ? 25 : 24);
  return obs;
}

InterfaceObservation RouterObs(uint32_t router, uint32_t arm) {
  InterfaceObservation obs;
  obs.ip = Ipv4Address(0x808a0000u + (((router * 5 + arm) % kSubnets) << 8) + 250);
  obs.mac = MacAddress::FromIndex(100000 + router);
  obs.dns_name = "gw" + std::to_string(router) + ".colorado.edu";
  obs.mask = SubnetMask::FromPrefixLength(24);
  return obs;
}

void Seed(JournalClient& client) {
  for (uint32_t s = 0; s < kSubnets; ++s) {
    for (uint32_t h = 0; h < kHostsPerSubnet; ++h) {
      client.StoreInterface(HostObs(s, h), DiscoverySource::kArpWatch);
    }
    SubnetObservation subnet;
    subnet.subnet = Subnet(Ipv4Address(0x808a0000u + (s << 8)), SubnetMask::FromPrefixLength(24));
    client.StoreSubnet(subnet, DiscoverySource::kSubnetMask);
  }
  for (uint32_t r = 0; r < kRouters; ++r) {
    client.StoreInterface(RouterObs(r, 0), DiscoverySource::kArpWatch);
    client.StoreInterface(RouterObs(r, 1), DiscoverySource::kArpWatch);
  }
}

// K genuinely changed records per pass: a rotating slice of hosts gets a new
// DNS name, which dirties their records (and their MAC groups) without
// changing the topology.
void Trickle(JournalClient& client, uint32_t pass) {
  for (uint32_t k = 0; k < kTricklePerPass; ++k) {
    const uint32_t i = (pass * kTricklePerPass + k) % (kSubnets * kHostsPerSubnet);
    InterfaceObservation obs = HostObs(i / kHostsPerSubnet, i % kHostsPerSubnet);
    obs.dns_name = "host" + std::to_string(i) + "-gen" + std::to_string(pass) +
                   ".colorado.edu";
    client.StoreInterface(obs, DiscoverySource::kDns);
  }
}

// One analysis pass, full flavor: from-scratch correlation + conflict scan
// over a freshly fetched snapshot.
void FullPass(JournalClient& client) {
  CorrelationReport report = Correlate(client);
  benchmark::DoNotOptimize(report.gateways_inferred_from_mac);
  auto conflicts = FindMaskConflicts(client.GetInterfaces());
  benchmark::DoNotOptimize(conflicts.size());
}

void BM_FullRepeatedAnalysis(benchmark::State& state) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  Seed(client);
  FullPass(client);  // Settle the inferred gateways before timing.
  uint32_t pass = 0;
  for (auto _ : state) {
    Trickle(client, pass++);
    FullPass(client);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullRepeatedAnalysis)->MinTime(2.0);

void BM_IncrementalRepeatedAnalysis(benchmark::State& state) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  client.EnableQueryCache();
  Seed(client);
  CorrelationState correlation;
  correlation.Update(client);  // Full rebuild + settle, outside the timing.
  uint32_t pass = 0;
  for (auto _ : state) {
    Trickle(client, pass++);
    CorrelationReport report = correlation.Update(client);
    benchmark::DoNotOptimize(report.gateways_inferred_from_mac);
    // Delta-patched: the cache repairs its snapshot from the change feed.
    auto conflicts = FindMaskConflicts(client.GetInterfaces());
    benchmark::DoNotOptimize(conflicts.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalRepeatedAnalysis)->MinTime(2.0);

// Wire-byte totals over a fixed 50-pass run of each mode, recorded as
// counters so they land in the JSON. Runs outside the timed loops to keep
// the byte counters clean of warmup iterations.
void RecordWireBytes() {
  auto& metrics = telemetry::MetricsRegistry::Global();
  auto bytes_now = [&metrics]() {
    return static_cast<int64_t>(
        metrics.GetCounter(telemetry::names::kJournalClientBytesSent)->value() +
        metrics.GetCounter(telemetry::names::kJournalClientBytesReceived)->value());
  };
  constexpr uint32_t kPasses = 50;

  int64_t full_bytes = 0;
  {
    JournalServer server([]() { return SimTime::Epoch(); });
    JournalClient client(&server);
    Seed(client);
    FullPass(client);
    const int64_t before = bytes_now();
    for (uint32_t pass = 0; pass < kPasses; ++pass) {
      Trickle(client, pass);
      FullPass(client);
    }
    full_bytes = bytes_now() - before;
  }

  int64_t incremental_bytes = 0;
  {
    JournalServer server([]() { return SimTime::Epoch(); });
    JournalClient client(&server);
    client.EnableQueryCache();
    Seed(client);
    CorrelationState correlation;
    correlation.Update(client);
    const int64_t before = bytes_now();
    for (uint32_t pass = 0; pass < kPasses; ++pass) {
      Trickle(client, pass);
      correlation.Update(client);
      auto conflicts = FindMaskConflicts(client.GetInterfaces());
      benchmark::DoNotOptimize(conflicts.size());
    }
    incremental_bytes = bytes_now() - before;
  }

  metrics.GetCounter(kWireBytesFull50Passes)->Add(full_bytes);
  metrics.GetCounter(kWireBytesIncremental50Passes)->Add(incremental_bytes);
  if (incremental_bytes > 0) {
    metrics.GetCounter(kIncrementalWireReductionX100)->Add(full_bytes * 100 / incremental_bytes);
  }
}

}  // namespace
}  // namespace fremont

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  fremont::RecordWireBytes();
  fremont::benchjson::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // The headline ratio (x100, counters are integers): full-pass ns over
  // incremental-pass ns on the identical trickle workload.
  double full_ns = 0.0;
  double incremental_ns = 0.0;
  for (const auto& result : reporter.results()) {
    if (result.name == "BM_FullRepeatedAnalysis/min_time:2.000") {
      full_ns = result.ns_per_op;
    } else if (result.name == "BM_IncrementalRepeatedAnalysis/min_time:2.000") {
      incremental_ns = result.ns_per_op;
    }
  }
  if (full_ns > 0.0 && incremental_ns > 0.0) {
    fremont::telemetry::MetricsRegistry::Global()
        .GetCounter(fremont::kIncrementalSpeedupX100)
        ->Add(static_cast<int64_t>(full_ns / incremental_ns * 100.0));
  }
  namespace names = fremont::telemetry::names;
  fremont::benchjson::WriteBenchJson(
      "BENCH_incremental_analysis.json", reporter.results(),
      {fremont::kIncrementalSpeedupX100, fremont::kIncrementalWireReductionX100,
       fremont::kWireBytesFull50Passes, fremont::kWireBytesIncremental50Passes,
       names::kJournalServerDeltaOps, names::kJournalClientDeltaRecords,
       names::kJournalClientFullResyncs, names::kCorrelateIncrementalPasses,
       names::kCorrelateRecordsSkipped, names::kCorrelateFullRebuilds,
       names::kJournalClientBytesSent, names::kJournalClientBytesReceived});
  benchmark::Shutdown();
  return 0;
}
