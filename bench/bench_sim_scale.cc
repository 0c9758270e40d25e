// Simulator scalability micro-benchmarks (google-benchmark): event
// throughput, campus construction, RIP convergence, and a full discovery
// sweep as functions of campus size. These bound how large a network the
// substrate can model interactively.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/traceroute.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

namespace fremont {
namespace {

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue queue;
    int fired = 0;
    for (int i = 0; i < 100000; ++i) {
      queue.Schedule(Duration::Micros(i % 1000), [&fired]() { ++fired; });
    }
    queue.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_EventQueueThroughput);

CampusParams ScaledParams(int64_t subnets) {
  CampusParams params;
  params.assigned_subnets = static_cast<int>(subnets);
  params.connected_subnets = static_cast<int>(subnets);
  params.faulty_gateway_subnets = static_cast<int>(subnets / 5);
  params.dns_registered_subnets = static_cast<int>(subnets * 4 / 5);
  params.dns_named_gateways = static_cast<int>(subnets / 4);
  return params;
}

void BM_BuildCampus(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(1);
    Campus campus = BuildCampus(sim, ScaledParams(state.range(0)));
    benchmark::DoNotOptimize(campus.truth.interfaces.size());
  }
  state.SetLabel(std::to_string(state.range(0)) + " subnets");
}
BENCHMARK(BM_BuildCampus)->Arg(16)->Arg(111)->Arg(255);

void BM_RipConvergenceMinute(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(1);
    Campus campus = BuildCampus(sim, ScaledParams(state.range(0)));
    sim.RunFor(Duration::Minutes(1));
    benchmark::DoNotOptimize(sim.events().executed_count());
  }
  state.SetLabel(std::to_string(state.range(0)) + " subnets, 1 sim-minute");
}
BENCHMARK(BM_RipConvergenceMinute)->Arg(16)->Arg(111);

void BM_FullTracerouteSweep(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(1);
    Campus campus = BuildCampus(sim, ScaledParams(state.range(0)));
    sim.RunFor(Duration::Minutes(3));
    JournalServer server([&sim]() { return sim.Now(); });
    JournalClient client(&server);
    RipWatch feeder(campus.vantage, &client, {.watch = Duration::Minutes(2)});
    feeder.Run();
    Traceroute trace(campus.vantage, &client);
    ExplorerReport report = trace.Run();
    benchmark::DoNotOptimize(report.discovered);
  }
  state.SetLabel(std::to_string(state.range(0)) + " subnets");
}
BENCHMARK(BM_FullTracerouteSweep)->Arg(16)->Arg(111)->Unit(benchmark::kMillisecond);

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
      "BENCH_sim_scale.json", reporter.results(),
      {names::kSimEventsDispatched, names::kModulePacketsSent.WithKey("traceroute"),
       names::kModuleRepliesReceived.WithKey("traceroute"), names::kModuleRuns.WithKey("ripwatch"),
       names::kJournalClientRequests});
  benchmark::Shutdown();
  return 0;
}
