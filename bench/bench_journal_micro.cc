// Micro-benchmarks (google-benchmark): AVL tree operations, Journal store
// and query paths, wire-protocol encode/decode, and the full client → codec
// → server round trip. These quantify the cost of the Journal Server's
// design choices (AVL indexes, modification-ordered list, full
// serialization on every request).

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/util/avl_tree.h"
#include "src/util/rng.h"

namespace fremont {
namespace {

void BM_AvlInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(42);
  std::vector<uint32_t> keys;
  for (int64_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<uint32_t>(rng.Uniform(0, 1 << 30)));
  }
  for (auto _ : state) {
    AvlTree<uint32_t, uint32_t> tree;
    for (uint32_t key : keys) {
      tree.Insert(key, key);
    }
    benchmark::DoNotOptimize(tree.Size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AvlInsert)->Arg(1000)->Arg(16384);

void BM_AvlFind(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(42);
  AvlTree<uint32_t, uint32_t> tree;
  std::vector<uint32_t> keys;
  for (int64_t i = 0; i < n; ++i) {
    uint32_t key = static_cast<uint32_t>(rng.Uniform(0, 1 << 30));
    keys.push_back(key);
    tree.Insert(key, key);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AvlFind)->Arg(16384);

void BM_AvlRangeScan(benchmark::State& state) {
  AvlTree<uint32_t, uint32_t> tree;
  for (uint32_t i = 0; i < 16384; ++i) {
    tree.Insert(i, i);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    tree.VisitRange(4096, 4096 + 254, [&](const uint32_t&, const uint32_t& v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_AvlRangeScan);

InterfaceObservation MakeObs(uint32_t i) {
  InterfaceObservation obs;
  obs.ip = Ipv4Address(0x808a0000u + i);
  obs.mac = MacAddress::FromIndex(i);
  obs.dns_name = "host" + std::to_string(i) + ".colorado.edu";
  obs.mask = SubnetMask::FromPrefixLength(24);
  return obs;
}

void BM_JournalStoreNew(benchmark::State& state) {
  const SimTime now = SimTime::Epoch() + Duration::Hours(1);
  for (auto _ : state) {
    state.PauseTiming();
    Journal journal;
    state.ResumeTiming();
    for (uint32_t i = 0; i < 1000; ++i) {
      journal.StoreInterface(MakeObs(i), DiscoverySource::kArpWatch, now);
    }
    benchmark::DoNotOptimize(journal.Stats().interface_count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_JournalStoreNew);

void BM_JournalVerifyExisting(benchmark::State& state) {
  const SimTime now = SimTime::Epoch() + Duration::Hours(1);
  Journal journal;
  for (uint32_t i = 0; i < 1000; ++i) {
    journal.StoreInterface(MakeObs(i), DiscoverySource::kArpWatch, now);
  }
  uint32_t i = 0;
  for (auto _ : state) {
    auto result =
        journal.StoreInterface(MakeObs(i++ % 1000), DiscoverySource::kEtherHostProbe, now);
    benchmark::DoNotOptimize(result.id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalVerifyExisting);

void BM_JournalSubnetRangeQuery(benchmark::State& state) {
  const SimTime now = SimTime::Epoch();
  Journal journal;
  for (uint32_t i = 0; i < 16000; ++i) {
    journal.StoreInterface(MakeObs(i), DiscoverySource::kArpWatch, now);
  }
  const Subnet subnet(Ipv4Address(0x808a2000u), SubnetMask::FromPrefixLength(24));
  for (auto _ : state) {
    auto records = journal.FindInterfacesInRange(subnet.network(), subnet.BroadcastAddress());
    benchmark::DoNotOptimize(records.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalSubnetRangeQuery);

void BM_ProtocolEncodeDecode(benchmark::State& state) {
  JournalRequest req;
  req.type = RequestType::kStoreInterface;
  req.source = DiscoverySource::kArpWatch;
  req.interface_obs = MakeObs(7);
  for (auto _ : state) {
    ByteBuffer bytes = req.Encode();
    auto decoded = JournalRequest::Decode(bytes);
    benchmark::DoNotOptimize(decoded->type);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolEncodeDecode);

void BM_ServerRoundTrip(benchmark::State& state) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  uint32_t i = 0;
  for (auto _ : state) {
    auto result = client.StoreInterface(MakeObs(i++ % 4096), DiscoverySource::kArpWatch);
    benchmark::DoNotOptimize(result.id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerRoundTrip);

void BM_JournalSaveLoad(benchmark::State& state) {
  const SimTime now = SimTime::Epoch();
  Journal journal;
  for (uint32_t i = 0; i < 4000; ++i) {
    journal.StoreInterface(MakeObs(i), DiscoverySource::kArpWatch, now);
  }
  for (auto _ : state) {
    ByteWriter writer;
    journal.EncodeAll(writer);
    Journal loaded;
    ByteReader reader(writer.buffer());
    bool ok = loaded.DecodeAll(reader);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_JournalSaveLoad);

}  // namespace
}  // namespace fremont

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  fremont::benchjson::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  namespace names = fremont::telemetry::names;
  fremont::benchjson::WriteBenchJson(
      "BENCH_journal_micro.json", reporter.results(),
      {names::kJournalClientRequests, names::kJournalClientBytesSent,
       names::kJournalClientBytesReceived,
       names::kJournalServerOps.WithKey(
           fremont::RequestTypeName(fremont::RequestType::kStoreInterface)),
       names::kJournalServerRecordsCreated, names::kJournalServerRecordsChanged});
  benchmark::Shutdown();
  return 0;
}
