// Protocol v2 batching benchmarks: the same store workloads driven through
// the v1 per-record wire path and through JournalBatchWriter, plus the
// query-cache read path. The interesting ratio is v1-per-record vs batch-64
// on the re-verify workload — that is what steady-state discovery looks like
// (most stores confirm records the Journal already holds).
//
// Writes BENCH_journal_batch.json, including explicit wire-byte totals for
// 64 re-verify stores under each protocol so CI can trend bytes next to
// nanoseconds.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "src/journal/batch_writer.h"
#include "src/journal/client.h"
#include "src/journal/server.h"

namespace fremont {
namespace {

// Bench-only series.
constexpr telemetry::MetricName kReverifyBatch64SpeedupX100{"bench/reverify_batch64_speedup_x100"};
constexpr telemetry::MetricName kWireBytesV164Stores{"bench/wire_bytes_v1_64_stores"};
constexpr telemetry::MetricName kWireBytesV2Batch64{"bench/wire_bytes_v2_batch64"};

InterfaceObservation MakeObs(uint32_t i) {
  InterfaceObservation obs;
  obs.ip = Ipv4Address(0x808a0000u + i);
  obs.mac = MacAddress::FromIndex(i);
  obs.dns_name = "host" + std::to_string(i) + ".colorado.edu";
  obs.mask = SubnetMask::FromPrefixLength(24);
  return obs;
}

// Working set matching the simulated campus: 111 connected subnets at 2-8
// hosts each is ~600 interfaces, so re-verify sweeps cycle through 512
// seeded records.
constexpr uint32_t kSeeded = 512;

void Seed(JournalClient& client) {
  for (uint32_t i = 0; i < kSeeded; ++i) {
    client.StoreInterface(MakeObs(i), DiscoverySource::kArpWatch);
  }
}

// Observations are pre-built outside the timed loops: both protocols pay the
// same construction cost, and including it would only dilute the wire-path
// difference being measured.
const std::vector<InterfaceObservation>& PrebuiltObs() {
  static const std::vector<InterfaceObservation> obs = [] {
    std::vector<InterfaceObservation> v;
    v.reserve(kSeeded);
    for (uint32_t i = 0; i < kSeeded; ++i) {
      v.push_back(MakeObs(i));
    }
    return v;
  }();
  return obs;
}

// v1 wire path: one round trip per record, re-verifying existing records.
void BM_StoreReverifyV1PerRecord(benchmark::State& state) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  Seed(client);
  const auto& obs = PrebuiltObs();
  uint32_t i = 0;
  for (auto _ : state) {
    auto result =
        client.StoreInterface(obs[i++ % kSeeded], DiscoverySource::kEtherHostProbe);
    benchmark::DoNotOptimize(result.id);
  }
  state.SetItemsProcessed(state.iterations());
}
// The two headline benchmarks (per-record v1 vs batch-64 v2) run longer than
// the default so the recorded speedup is not at the mercy of scheduler noise.
BENCHMARK(BM_StoreReverifyV1PerRecord)->MinTime(2.0);

// v2 wire path: the same stores through a batch writer; one kBatch round
// trip per `batch_size` records.
void BM_StoreReverifyV2Batched(benchmark::State& state) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  client.set_store_batch_size(static_cast<size_t>(state.range(0)));
  Seed(client);
  const auto& obs = PrebuiltObs();
  JournalBatchWriter writer(&client);
  uint32_t i = 0;
  for (auto _ : state) {
    writer.StoreInterface(obs[i++ % kSeeded], DiscoverySource::kEtherHostProbe);
  }
  writer.Flush();
  benchmark::DoNotOptimize(writer.totals().records_written);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreReverifyV2Batched)->Arg(8)->Arg(256);
BENCHMARK(BM_StoreReverifyV2Batched)->Arg(64)->MinTime(2.0);

// Fresh-record workload: a campus worth of brand-new interfaces per
// iteration.
void BM_StoreNewV1PerRecord(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    JournalServer server([]() { return SimTime::Epoch(); });
    JournalClient client(&server);
    const auto& obs = PrebuiltObs();
    state.ResumeTiming();
    for (uint32_t i = 0; i < kSeeded; ++i) {
      client.StoreInterface(obs[i], DiscoverySource::kArpWatch);
    }
  }
  state.SetItemsProcessed(state.iterations() * kSeeded);
}
BENCHMARK(BM_StoreNewV1PerRecord);

void BM_StoreNewV2Batch64(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    JournalServer server([]() { return SimTime::Epoch(); });
    JournalClient client(&server);
    const auto& obs = PrebuiltObs();
    state.ResumeTiming();
    {
      JournalBatchWriter writer(&client);
      for (uint32_t i = 0; i < kSeeded; ++i) {
        writer.StoreInterface(obs[i], DiscoverySource::kArpWatch);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kSeeded);
}
BENCHMARK(BM_StoreNewV2Batch64);

// Read path: repeated full-table GetInterfaces against an unchanged Journal.
// Uncached, every call re-serializes all records; with the query cache, each
// repeat is one empty change-feed delta and a copy of the mirrored table.
void BM_GetInterfacesUncached(benchmark::State& state) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  Seed(client);
  for (auto _ : state) {
    auto records = client.GetInterfaces();
    benchmark::DoNotOptimize(records.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetInterfacesUncached);

void BM_GetInterfacesCached(benchmark::State& state) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  client.EnableQueryCache();
  Seed(client);
  for (auto _ : state) {
    auto records = client.GetInterfaces();
    benchmark::DoNotOptimize(records.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetInterfacesCached);

// Wire-byte totals for 64 re-verify stores per protocol, recorded as
// counters so they land in the JSON. Measured outside the timed loops to
// keep the byte counters clean.
void RecordWireBytes() {
  auto& metrics = telemetry::MetricsRegistry::Global();

  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient seed_client(&server);
  Seed(seed_client);

  int64_t v1_bytes = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    JournalRequest req;
    req.type = RequestType::kStoreInterface;
    req.source = DiscoverySource::kEtherHostProbe;
    req.interface_obs = MakeObs(i);
    ByteBuffer wire = req.Encode();
    v1_bytes += static_cast<int64_t>(wire.size());
    v1_bytes += static_cast<int64_t>(server.HandleRequest(wire).size());
  }

  JournalRequest batch;
  batch.type = RequestType::kBatch;
  for (uint32_t i = 0; i < 64; ++i) {
    JournalRequest item;
    item.type = RequestType::kStoreInterface;
    item.source = DiscoverySource::kEtherHostProbe;
    item.interface_obs = MakeObs(i);
    item.obs_time = SimTime::Epoch();
    batch.batch.push_back(std::move(item));
  }
  ByteBuffer wire = batch.Encode();
  int64_t v2_bytes = static_cast<int64_t>(wire.size());
  v2_bytes += static_cast<int64_t>(server.HandleRequest(wire).size());

  metrics.GetCounter(kWireBytesV164Stores)->Add(v1_bytes);
  metrics.GetCounter(kWireBytesV2Batch64)->Add(v2_bytes);
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
  // Record the headline v1-vs-v2 speedup directly (x100, counters are
  // integers) so the JSON carries the ratio and not just its ingredients.
  double v1_ns = 0.0;
  double v2_ns = 0.0;
  for (const auto& result : reporter.results()) {
    if (result.name == "BM_StoreReverifyV1PerRecord/min_time:2.000") {
      v1_ns = result.ns_per_op;
    } else if (result.name == "BM_StoreReverifyV2Batched/64/min_time:2.000") {
      v2_ns = result.ns_per_op;
    }
  }
  if (v1_ns > 0.0 && v2_ns > 0.0) {
    fremont::telemetry::MetricsRegistry::Global()
        .GetCounter(fremont::kReverifyBatch64SpeedupX100)
        ->Add(static_cast<int64_t>(v1_ns / v2_ns * 100.0));
  }
  namespace names = fremont::telemetry::names;
  fremont::benchjson::WriteBenchJson(
      "BENCH_journal_batch.json", reporter.results(),
      {fremont::kReverifyBatch64SpeedupX100, fremont::kWireBytesV164Stores,
       fremont::kWireBytesV2Batch64, names::kJournalClientRequests, names::kJournalClientBytesSent,
       names::kJournalClientBytesReceived, names::kJournalClientCacheHits,
       names::kJournalClientCacheMisses, names::kJournalClientEncodeBytesReused,
       names::kJournalServerBatchOps});
  benchmark::Shutdown();
  return 0;
}
