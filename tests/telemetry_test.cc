// Tests for the telemetry layer: instrument semantics, registry pointer
// stability, trace ring-buffer wraparound, and the JSON export schema.
//
// The full-document golden below is deliberate: "fremont.telemetry.v1" is a
// compatibility surface (fremont_report --telemetry, BENCH_*.json), so any
// formatting change must show up as a diff here.

#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

#include <gtest/gtest.h>

#include "src/journal/batch_writer.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/util/logging.h"

namespace fremont::telemetry {
namespace {

// Test-only series.
constexpr MetricName kXCount{"x/count"};
constexpr MetricName kXDepth{"x/depth"};
constexpr MetricName kXHistogram{"x/h"};
constexpr MetricName kMCounter{"m/c"};
constexpr MetricName kMGauge{"m/g"};
constexpr MetricName kMHistogram{"m/h"};
constexpr MetricName kAOne{"a/one"};
constexpr MetricName kBTwo{"b/two"};

TEST(CounterTest, IncrementAddSetReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Add(4);
  EXPECT_EQ(counter.value(), 5u);
  counter.Set(42);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, TracksHighWaterMark) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Set(3);
  EXPECT_EQ(gauge.value(), 3);
  EXPECT_EQ(gauge.max_value(), 10);
  gauge.Add(12);
  EXPECT_EQ(gauge.value(), 15);
  EXPECT_EQ(gauge.max_value(), 15);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.max_value(), 0);
}

TEST(GaugeTest, TracksLowWaterMark) {
  Gauge gauge;
  // Both extremes are relative to the initial level 0: a gauge that only
  // rises keeps min 0.
  gauge.Set(10);
  EXPECT_EQ(gauge.min_value(), 0);
  gauge.Add(-14);
  EXPECT_EQ(gauge.value(), -4);
  EXPECT_EQ(gauge.min_value(), -4);
  gauge.Set(2);
  EXPECT_EQ(gauge.min_value(), -4);
  gauge.Reset();
  EXPECT_EQ(gauge.min_value(), 0);
}

TEST(HistogramTest, BucketPlacementAndStats) {
  Histogram histogram({10, 100, 1000});
  histogram.Observe(5);      // <= 10.
  histogram.Observe(10);     // <= 10 (bounds are inclusive).
  histogram.Observe(50);     // <= 100.
  histogram.Observe(5000);   // Overflow.
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 5065);
  EXPECT_EQ(histogram.min(), 5);
  EXPECT_EQ(histogram.max(), 5000);
  ASSERT_EQ(histogram.bucket_counts().size(), 4u);
  EXPECT_EQ(histogram.bucket_counts()[0], 2u);
  EXPECT_EQ(histogram.bucket_counts()[1], 1u);
  EXPECT_EQ(histogram.bucket_counts()[2], 0u);
  EXPECT_EQ(histogram.bucket_counts()[3], 1u);
}

TEST(HistogramTest, SortsAndDeduplicatesBounds) {
  Histogram histogram({100, 10, 100});
  ASSERT_EQ(histogram.bounds().size(), 2u);
  EXPECT_EQ(histogram.bounds()[0], 10);
  EXPECT_EQ(histogram.bounds()[1], 100);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram histogram({10});
  histogram.Observe(3);
  histogram.Observe(30);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0);
  EXPECT_EQ(histogram.bucket_counts()[0], 0u);
  EXPECT_EQ(histogram.bucket_counts()[1], 0u);
}

TEST(HistogramTest, ApproxPercentileInterpolatesWithinBuckets) {
  Histogram empty({10});
  EXPECT_DOUBLE_EQ(empty.ApproxPercentile(0.5), 0.0);

  // Degenerate histogram: the edge buckets are tightened by min/max, so a
  // single repeated value is reported exactly.
  Histogram single({10, 100});
  single.Observe(42);
  single.Observe(42);
  single.Observe(42);
  EXPECT_DOUBLE_EQ(single.ApproxPercentile(0.50), 42.0);
  EXPECT_DOUBLE_EQ(single.ApproxPercentile(0.99), 42.0);

  // Two observations spanning one bucket: the median interpolates halfway.
  Histogram uniform({10});
  uniform.Observe(0);
  uniform.Observe(10);
  EXPECT_DOUBLE_EQ(uniform.ApproxPercentile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(uniform.ApproxPercentile(1.0), 10.0);

  // Overflow bucket: (last bound, observed max] bounds the interpolation.
  Histogram overflow({10});
  overflow.Observe(5);
  overflow.Observe(100);
  EXPECT_NEAR(overflow.ApproxPercentile(0.99), 98.2, 1e-9);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter(kXCount);
  Counter* b = registry.GetCounter(kXCount);
  EXPECT_EQ(a, b);
  // The first caller fixes histogram bounds; later bounds are ignored.
  Histogram* h1 = registry.GetHistogram(kXHistogram, {1, 2});
  Histogram* h2 = registry.GetHistogram(kXHistogram, {100});
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->bounds().size(), 2u);
}

TEST(MetricsRegistryTest, ResetPreservesPointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter(kXCount);
  Gauge* gauge = registry.GetGauge(kXDepth);
  counter->Add(7);
  gauge->Set(9);
  registry.Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(gauge->value(), 0);
  // Cached pointers must keep working on the same (zeroed) cells.
  counter->Increment();
  EXPECT_EQ(registry.GetCounter(kXCount), counter);
  const MutexLock lock(registry.export_mutex());
  EXPECT_EQ(registry.counters().at("x/count").value(), 1u);
}

TEST(TracerTest, RingBufferWrapsOldestFirst) {
  Tracer tracer(3);
  for (int i = 0; i < 5; ++i) {
    tracer.Record(SimTime::FromMicros(i), TraceEventKind::kProbeSent, "m",
                  std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded_count(), 5u);
  EXPECT_EQ(tracer.dropped_count(), 2u);
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].detail, "2");
  EXPECT_EQ(events[1].detail, "3");
  EXPECT_EQ(events[2].detail, "4");
}

TEST(TracerTest, DisabledTracerDropsAtCallSite) {
  Tracer tracer(4);
  tracer.set_enabled(false);
  tracer.Record(SimTime::Epoch(), TraceEventKind::kProbeSent, "m");
  EXPECT_EQ(tracer.recorded_count(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(ExportTest, JsonGoldenDocument) {
  Logging::ResetCounts();
  MetricsRegistry registry;
  registry.GetCounter(kMCounter)->Add(3);
  Gauge* gauge = registry.GetGauge(kMGauge);
  gauge->Set(2);
  gauge->Set(1);
  Histogram* histogram = registry.GetHistogram(kMHistogram, {10, 100});
  histogram->Observe(5);
  histogram->Observe(1000);
  Tracer tracer(4);
  tracer.Record(SimTime::FromMicros(1000), TraceEventKind::kModuleRunStart, "m");
  tracer.Record(SimTime::FromMicros(2000), TraceEventKind::kProbeSent, "m", "x");

  const std::string expected =
      "{\"schema\": \"fremont.telemetry.v1\",\n"
      " \"counters\": {\"log/errors\": 0, \"log/warnings\": 0, \"m/c\": 3, "
      "\"telemetry/trace_dropped\": 0, \"telemetry/trace_recorded\": 2},\n"
      " \"gauges\": {\"m/g\": {\"value\": 1, \"max\": 2, \"min\": 0}},\n"
      " \"histograms\": {\"m/h\": {\"count\": 2, \"sum\": 1005, \"min\": 5, \"max\": 1000, "
      "\"buckets\": [{\"le\": 10, \"count\": 1}, {\"le\": 100, \"count\": 0}, "
      "{\"le\": \"inf\", \"count\": 1}]}},\n"
      " \"trace\": {\"capacity\": 4, \"recorded\": 2, \"dropped\": 0, \"events\": [\n"
      "  {\"at_us\": 1000, \"kind\": \"module_run_start\", \"module\": \"m\", \"detail\": \"\"},\n"
      "  {\"at_us\": 2000, \"kind\": \"probe_sent\", \"module\": \"m\", \"detail\": \"x\"}]}}\n";
  EXPECT_EQ(ExportJson(registry, tracer), expected);
}

TEST(ExportTest, JsonIsStableAcrossIdenticalState) {
  MetricsRegistry registry;
  registry.GetCounter(kBTwo)->Add(2);
  registry.GetCounter(kAOne)->Increment();
  Tracer tracer(2);
  const std::string first = ExportJson(registry, tracer);
  const std::string second = ExportJson(registry, tracer);
  EXPECT_EQ(first, second);
  // std::map keying puts a/one before b/two regardless of creation order.
  EXPECT_LT(first.find("a/one"), first.find("b/two"));
}

TEST(ExportTest, MaxTraceEventsBoundsAndOmitsTail) {
  MetricsRegistry registry;
  Tracer tracer(8);
  for (int i = 0; i < 6; ++i) {
    tracer.Record(SimTime::FromMicros(i), TraceEventKind::kProbeSent, "m", std::to_string(i));
  }
  const std::string bounded = ExportJson(registry, tracer, 2);
  EXPECT_EQ(bounded.find("\"detail\": \"3\""), std::string::npos);
  EXPECT_NE(bounded.find("\"detail\": \"4\""), std::string::npos);
  EXPECT_NE(bounded.find("\"detail\": \"5\""), std::string::npos);
  const std::string stats_only = ExportJson(registry, tracer, 0);
  EXPECT_EQ(stats_only.find("\"events\""), std::string::npos);
  EXPECT_NE(stats_only.find("\"recorded\": 6"), std::string::npos);
}

TEST(ExportTest, SyncExternalCountersImportsLogTallies) {
  Logging::ResetCounts();
  Logging::Sink quiet = [](LogLevel, const std::string&) {};
  Logging::SetSink(quiet);
  FLOG(kWarning) << "one";
  FLOG(kError) << "two";
  FLOG(kError) << "three";
  Logging::SetSink(nullptr);
  MetricsRegistry registry;
  SyncExternalCounters(registry);
  {
    const MutexLock lock(registry.export_mutex());
    EXPECT_EQ(registry.counters().at("log/warnings").value(), 1u);
    EXPECT_EQ(registry.counters().at("log/errors").value(), 2u);
  }
  Logging::ResetCounts();
}

TEST(ExportTest, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

// Protocol v2 wires its own instruments into the global registry: the batch
// writer records flush sizes, the server counts batched sub-operations, the
// query cache tallies hits/misses, and the client counts scratch-buffer
// capacity it reused instead of reallocating.
TEST(JournalTelemetryTest, V2InstrumentsCoverBatchingCachingAndScratchReuse) {
  auto& metrics = MetricsRegistry::Global();
  metrics.Reset();

  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  client.set_store_batch_size(4);
  client.EnableQueryCache();
  {
    JournalBatchWriter writer(&client);
    for (uint32_t i = 0; i < 8; ++i) {
      InterfaceObservation obs;
      obs.ip = Ipv4Address(0x80800000u + i);
      writer.StoreInterface(obs, DiscoverySource::kArpWatch);
    }
  }  // 8 stores at batch size 4: exactly two kBatch flushes.
  client.GetInterfaces();  // First read: the table is fetched whole, a miss.
  client.GetInterfaces();  // Nothing changed: patched from an empty delta.

  const MutexLock lock(metrics.export_mutex());
  const Histogram& batch_sizes = metrics.histograms().at("journal_client/batch_size");
  EXPECT_EQ(batch_sizes.count(), 2u);
  EXPECT_EQ(batch_sizes.sum(), 8);
  EXPECT_EQ(metrics.counters().at("journal_server/batch_ops").value(), 8u);
  EXPECT_EQ(metrics.counters().at("journal_client/cache_misses").value(), 1u);
  EXPECT_EQ(metrics.counters().at("journal_client/cache_hits").value(), 1u);
  // The first encode starts from an empty scratch buffer; every round trip
  // after it reuses the allocation.
  EXPECT_GT(metrics.counters().at("journal_client/encode_bytes_reused").value(), 0u);
}

// The server resolves its per-op counter and latency histogram once per
// request type: each request lands on its own type's pair, and a type never
// handled registers nothing, so the export gains no zero-valued instruments.
TEST(JournalTelemetryTest, PerOpInstrumentsCountEachTypeAndRegisterOnlyHandledTypes) {
  auto& metrics = MetricsRegistry::Global();
  metrics.Reset();

  JournalServer server([]() { return SimTime::Epoch(); });
  for (uint32_t i = 0; i < 3; ++i) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(0x80800000u + i);
    JournalRequest store;
    store.type = RequestType::kStoreInterface;
    store.interface_obs = obs;
    store.source = DiscoverySource::kArpWatch;
    server.Handle(store);
  }
  JournalRequest stats;
  stats.type = RequestType::kGetStats;
  for (int i = 0; i < 2; ++i) {
    server.Handle(stats);
  }

  const MutexLock lock(metrics.export_mutex());
  EXPECT_EQ(metrics.counters().at("journal_server/ops_store_interface").value(), 3u);
  EXPECT_EQ(metrics.counters().at("journal_server/ops_get_stats").value(), 2u);
  EXPECT_EQ(metrics.histograms().at("journal_server/op_latency_us/store_interface").count(), 3u);
  EXPECT_EQ(metrics.histograms().at("journal_server/op_latency_us/get_stats").count(), 2u);
  EXPECT_EQ(metrics.counters().count("journal_server/ops_delete_subnet"), 0u);
  EXPECT_EQ(metrics.histograms().count("journal_server/op_latency_us/delete_subnet"), 0u);
}

TEST(ExportTest, TextDumpListsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter(kMCounter)->Add(3);
  registry.GetGauge(kMGauge)->Set(4);
  registry.GetHistogram(kMHistogram, {10})->Observe(2);
  const std::string text = ExportText(registry);
  EXPECT_NE(text.find("m/c"), std::string::npos);
  EXPECT_NE(text.find("m/g"), std::string::npos);
  EXPECT_NE(text.find("m/h"), std::string::npos);
}

}  // namespace
}  // namespace fremont::telemetry
