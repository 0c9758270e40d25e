// Multi-threaded smoke test for the telemetry core, meant to run under
// ThreadSanitizer (tools/check.sh tsan). Four threads hammer shared and
// per-thread instruments — counter bumps, gauge extremes, histogram
// observations, span open/close, flat Record() calls — while the main thread
// exports concurrently. Correctness here is "no data races and exact totals
// once the writers join"; the single-threaded semantics live in
// telemetry_test.cc and span_test.cc.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/journal/protocol.h"
#include "src/journal/server.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace.h"

namespace fremont::telemetry {
namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 2000;
constexpr MetricName kOps{"smoke/ops"};
constexpr MetricName kLevel{"smoke/level"};
constexpr MetricName kLatency{"smoke/latency"};

TEST(TelemetryConcurrencyTest, FourThreadsShareInstrumentsAndTracer) {
  MetricsRegistry registry;
  Tracer tracer(256);

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &tracer, &go, t]() {
      while (!go.load(std::memory_order_acquire)) {
      }
      // Same names on purpose: registration must be race-free and every
      // thread must land on the same instrument cells.
      Counter* counter = registry.GetCounter(kOps);
      Gauge* gauge = registry.GetGauge(kLevel);
      Histogram* histogram = registry.GetHistogram(kLatency, {10, 100, 1000});
      for (int i = 0; i < kIterations; ++i) {
        counter->Increment();
        gauge->Set(t * kIterations + i);
        histogram->Observe(i % 1500);
        // The span stack is thread-local; the ring and id allocators are
        // shared. Every iteration opens, tags, and closes a span.
        Span span(names::kSpanManagerTick, SimTime::FromMicros(i), tracer);
        tracer.Record(SimTime::FromMicros(i), TraceEventKind::kProbeSent, "smoke",
                      std::to_string(i));
        span.End(TraceEventKind::kManagerTick, SimTime::FromMicros(i + 1));
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Concurrent exports: walk the registry and ring while writers are live.
  for (int i = 0; i < 20; ++i) {
    const std::string json = ExportJson(registry, tracer, 32);
    EXPECT_NE(json.find("fremont.telemetry.v1"), std::string::npos);
    (void)ExportText(registry, tracer);
  }
  for (auto& thread : threads) {
    thread.join();
  }

  const uint64_t expected = static_cast<uint64_t>(kThreads) * kIterations;
  EXPECT_EQ(registry.GetCounter(kOps)->value(), expected);
  EXPECT_EQ(registry.GetHistogram(kLatency, {})->count(), expected);
  EXPECT_EQ(registry.GetGauge(kLevel)->max_value(),
            static_cast<int64_t>(kThreads) * kIterations - 1);
  // Each iteration records one point event and one span completion.
  EXPECT_EQ(tracer.recorded_count(), 2 * expected);
  EXPECT_EQ(tracer.Events().size(), tracer.capacity());

  // Every retained completion event carries a valid, self-consistent span
  // context (the point events recorded inside it share its trace).
  for (const TraceEvent& event : tracer.Events()) {
    EXPECT_TRUE(event.ctx.valid());
    if (event.kind == TraceEventKind::kManagerTick) {
      EXPECT_EQ(event.duration_us, 1);
    }
  }
}

// Regression for an unlocked write -Wthread-safety surfaced:
// JournalServer::EnableCheckpoint used to set checkpoint_path_/interval_/
// last_checkpoint_ with no lock, while MaybeCheckpoint (every HandleRequest)
// read them under the ingest lock — a data race TSan sees the moment
// checkpointing is enabled mid-traffic. The fix takes the writer lock in
// EnableCheckpoint and gates the per-request fast path on an atomic.
TEST(TelemetryConcurrencyTest, EnableCheckpointDuringRequestTraffic) {
  // A fixed clock keeps the one-hour interval from ever elapsing, so the
  // race is exercised without checkpoint disk writes per request (only the
  // at-destruction save lands in TempDir).
  JournalServer server([]() { return SimTime::Epoch(); });
  const std::string path = testing::TempDir() + "fremont_checkpoint_race.bin";

  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&server, &go, &done, t]() {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint32_t i = 0; i < kIterations; ++i) {
        JournalRequest req;
        req.type = RequestType::kStoreInterface;
        InterfaceObservation obs;
        obs.ip = Ipv4Address(0x0a000000u + (static_cast<uint32_t>(t) << 12) + (i & 0xfffu));
        req.interface_obs = obs;
        req.source = DiscoverySource::kArpWatch;
        // The wire entry point is what runs MaybeCheckpoint per request.
        (void)server.HandleRequest(req.Encode());
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  go.store(true, std::memory_order_release);

  // Re-enable for as long as stores are in flight: every call races a
  // concurrent MaybeCheckpoint without the fix.
  while (done.load(std::memory_order_acquire) < kThreads) {
    server.EnableCheckpoint(path, Duration::Hours(1));
  }

  for (auto& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(server.requests_handled(), static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_GT(server.journal().Stats().interface_count, 0u);
}

}  // namespace
}  // namespace fremont::telemetry
