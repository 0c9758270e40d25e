// Causal tracing coverage: Span parentage and RAII currency, the wire TLV
// that carries a SpanContext across the Journal protocol, the Chrome
// trace_event exporter (golden), the telemetry-document event reader, and
// the end-to-end property the whole feature exists for — one trace_id links
// a batch flush to the server-side store and to the delta read that later
// consumed it.

#include "src/telemetry/span.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/journal/batch_writer.h"
#include "src/journal/client.h"
#include "src/journal/protocol.h"
#include "src/journal/server.h"
#include "src/present/views.h"
#include "src/telemetry/chrome_export.h"
#include "src/telemetry/export.h"
#include "src/telemetry/names.h"
#include "src/telemetry/trace.h"

namespace fremont::telemetry {
namespace {

TEST(SpanTest, RootChildAndRemoteParentage) {
  Tracer tracer(16);
  Span root(names::kSpanManagerTick, SimTime::FromMicros(10), tracer);
  EXPECT_NE(root.context().trace_id, 0u);
  EXPECT_NE(root.context().span_id, 0u);
  EXPECT_EQ(root.context().parent_span_id, 0u);

  {
    // Nested construction on the same thread: child of the current span.
    Span child(names::kSpanCorrelate, SimTime::FromMicros(20), tracer);
    EXPECT_EQ(child.context().trace_id, root.context().trace_id);
    EXPECT_EQ(child.context().parent_span_id, root.context().span_id);
    EXPECT_NE(child.context().span_id, root.context().span_id);
  }

  // A valid remote parent (wire-propagated context) wins over the current
  // span: the new span joins the remote trace.
  const SpanContext remote{77, 5, 0};
  Span server_side(names::kSpanJournalServer, SimTime::FromMicros(30), tracer, remote);
  EXPECT_EQ(server_side.context().trace_id, 77u);
  EXPECT_EQ(server_side.context().parent_span_id, 5u);
  EXPECT_NE(server_side.context().span_id, 5u);
}

TEST(SpanTest, EndRecordsOneCompletionAtStartTime) {
  Tracer tracer(16);
  Span span(names::kSpanJournalFlush, SimTime::FromMicros(100), tracer);
  span.End(TraceEventKind::kJournalRpc, SimTime::FromMicros(350), "batch_flush n=3");
  span.End(TraceEventKind::kJournalRpc, SimTime::FromMicros(999));  // Ignored.
  EXPECT_TRUE(span.ended());
  EXPECT_EQ(span.duration_us(), 250);

  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  // `at` is the span's START; (at, at + duration_us) is its interval.
  EXPECT_EQ(events[0].at.ToMicros(), 100);
  EXPECT_EQ(events[0].duration_us, 250);
  EXPECT_EQ(events[0].module, names::kSpanJournalFlush.c_str());
  EXPECT_EQ(events[0].detail, "batch_flush n=3");
  EXPECT_EQ(events[0].ctx.trace_id, span.context().trace_id);
  EXPECT_EQ(events[0].ctx.span_id, span.context().span_id);
}

TEST(SpanTest, AbandonedSpanRecordsNothing) {
  Tracer tracer(16);
  {
    Span span(names::kSpanCorrelate, SimTime::FromMicros(5), tracer);
    (void)span;  // Destroyed without End(): no misleading completion event.
  }
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(SpanTest, RecordTagsTheCurrentSpan) {
  Tracer tracer(16);
  tracer.Record(SimTime::FromMicros(1), TraceEventKind::kProbeSent, "m", "outside");
  {
    Span span(names::kSpanManagerTick, SimTime::FromMicros(2), tracer);
    tracer.Record(SimTime::FromMicros(3), TraceEventKind::kProbeSent, "m", "inside");
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].ctx.valid());  // Outside any span: zero context.
  EXPECT_TRUE(events[1].ctx.valid());
  EXPECT_NE(events[1].ctx.trace_id, 0u);
}

TEST(SpanTest, CurrentSpanScopeReactivatesAcrossScopes) {
  Tracer tracer(16);
  // make_current = false models work that runs later from the event queue:
  // the constructing scope does not become the span.
  Span span(names::kSpanManagerTick, SimTime::FromMicros(1), tracer, SpanContext{},
            /*make_current=*/false);
  EXPECT_FALSE(CurrentSpanContext(tracer).valid());
  {
    const CurrentSpanScope scope(tracer, span.context());
    EXPECT_EQ(CurrentSpanContext(tracer).span_id, span.context().span_id);
  }
  EXPECT_FALSE(CurrentSpanContext(tracer).valid());
  {
    const CurrentSpanScope noop(tracer, SpanContext{});  // Zero ctx: no-op.
    EXPECT_FALSE(CurrentSpanContext(tracer).valid());
  }
}

TEST(SpanTest, NonLifoEndPopsByIdentity) {
  Tracer tracer(16);
  Span outer(names::kSpanManagerTick, SimTime::FromMicros(1), tracer);
  Span inner(names::kSpanCorrelate, SimTime::FromMicros(2), tracer);
  // Ending the OUTER span first must not dethrone the inner one.
  outer.End(TraceEventKind::kManagerTick, SimTime::FromMicros(3));
  EXPECT_EQ(CurrentSpanContext(tracer).span_id, inner.context().span_id);
  inner.End(TraceEventKind::kCorrelationPass, SimTime::FromMicros(4));
  EXPECT_FALSE(CurrentSpanContext(tracer).valid());
}

// --- Wire propagation --------------------------------------------------------

TEST(SpanWireTest, GetChangedSinceCarriesAndRoundTripsContext) {
  JournalRequest req;
  req.type = RequestType::kGetChangedSince;
  req.changed_kind = RecordKind::kGateway;
  req.since_generation = 7;
  req.span_ctx = SpanContext{42, 9, 3};
  const ByteBuffer bytes = req.Encode();

  JournalRequest bare = req;
  bare.span_ctx = SpanContext{};
  const ByteBuffer bare_bytes = bare.Encode();
  // Tag byte + length byte + three u64s.
  EXPECT_EQ(bytes.size(), bare_bytes.size() + 26);

  const auto decoded = JournalRequest::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RequestType::kGetChangedSince);
  EXPECT_EQ(decoded->since_generation, 7u);
  EXPECT_EQ(decoded->span_ctx.trace_id, 42u);
  EXPECT_EQ(decoded->span_ctx.span_id, 9u);
  EXPECT_EQ(decoded->span_ctx.parent_span_id, 3u);

  const auto decoded_bare = JournalRequest::Decode(bare_bytes);
  ASSERT_TRUE(decoded_bare.has_value());
  EXPECT_FALSE(decoded_bare->span_ctx.valid());
}

TEST(SpanWireTest, BatchFrameCarriesContextOnceAtTopLevel) {
  JournalRequest item;
  item.type = RequestType::kStoreInterface;
  item.interface_obs = InterfaceObservation{};
  item.interface_obs->ip = Ipv4Address(0x0A000001u);

  ByteWriter writer;
  JournalRequest::EncodeBatchFrame(writer, DiscoverySource::kNone, &item, 1,
                                   SpanContext{11, 22, 0});
  const auto decoded = JournalRequest::Decode(writer.TakeBuffer());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RequestType::kBatch);
  EXPECT_EQ(decoded->span_ctx.trace_id, 11u);
  EXPECT_EQ(decoded->span_ctx.span_id, 22u);
  ASSERT_EQ(decoded->batch.size(), 1u);
  // Sub-requests never carry the trailer; they decode to the zero context.
  EXPECT_FALSE(decoded->batch[0].span_ctx.valid());
}

TEST(SpanWireTest, V1FramesNeverCarryContext) {
  // A v1 request type ignores span_ctx entirely: the encoded bytes are
  // identical with and without it, and the golden v1 framing stays frozen.
  JournalRequest req;
  req.type = RequestType::kGetInterfaces;
  req.selector = Selector::All();
  const ByteBuffer bare = req.Encode();
  req.span_ctx = SpanContext{42, 9, 3};
  const ByteBuffer tagged = req.Encode();
  EXPECT_EQ(bare, tagged);
  const auto decoded = JournalRequest::Decode(tagged);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->span_ctx.valid());
}

// --- Chrome trace export -----------------------------------------------------

TEST(ChromeTraceTest, GoldenExport) {
  std::vector<TraceEvent> events;
  TraceEvent run;
  run.at = SimTime::FromMicros(1000);
  run.kind = TraceEventKind::kModuleRunEnd;
  run.module = "seqping";
  run.detail = "run";
  run.ctx = SpanContext{1, 2, 0};
  run.duration_us = 500;
  events.push_back(run);
  TraceEvent probe;
  probe.at = SimTime::FromMicros(1200);
  probe.kind = TraceEventKind::kProbeSent;
  probe.module = "seqping";
  probe.detail = "10.0.0.1";
  probe.ctx = SpanContext{1, 3, 2};
  events.push_back(probe);
  TraceEvent flat;
  flat.at = SimTime::FromMicros(2000);
  flat.kind = TraceEventKind::kScheduleDecision;
  flat.module = "manager";
  events.push_back(flat);

  const std::string expected =
      "{\"traceEvents\": [\n"
      " {\"name\": \"seqping\", \"cat\": \"module_run_end\", \"ph\": \"X\", \"ts\": 1000, "
      "\"dur\": 500, \"pid\": 1, \"tid\": 1, \"args\": {\"detail\": \"run\", \"span_id\": 2, "
      "\"parent_span_id\": 0}},\n"
      " {\"name\": \"seqping\", \"cat\": \"probe_sent\", \"ph\": \"i\", \"ts\": 1200, "
      "\"s\": \"t\", \"pid\": 1, \"tid\": 1, \"args\": {\"detail\": \"10.0.0.1\", "
      "\"span_id\": 3, \"parent_span_id\": 2}},\n"
      " {\"name\": \"manager\", \"cat\": \"schedule_decision\", \"ph\": \"i\", \"ts\": 2000, "
      "\"s\": \"t\", \"pid\": 1, \"tid\": 0, \"args\": {\"detail\": \"\"}}\n"
      "], \"displayTimeUnit\": \"ms\"}\n";
  EXPECT_EQ(ExportChromeTrace(events), expected);
}

TEST(ChromeTraceTest, ParseTelemetryDocumentRoundTrip) {
  MetricsRegistry registry;
  Tracer tracer(8);
  tracer.RecordSpan(SimTime::FromMicros(100), TraceEventKind::kJournalRpc, "journal_client",
                    "batch_flush n=2", SpanContext{4, 5, 0}, 40);
  tracer.Record(SimTime::FromMicros(150), TraceEventKind::kScheduleDecision, "manager",
                "detail with \"quotes\"");

  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(ParseTelemetryTraceEvents(ExportJson(registry, tracer), &parsed));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].at.ToMicros(), 100);
  EXPECT_EQ(parsed[0].kind, TraceEventKind::kJournalRpc);
  EXPECT_EQ(parsed[0].module, "journal_client");
  EXPECT_EQ(parsed[0].detail, "batch_flush n=2");
  EXPECT_EQ(parsed[0].ctx.trace_id, 4u);
  EXPECT_EQ(parsed[0].ctx.span_id, 5u);
  EXPECT_EQ(parsed[0].duration_us, 40);
  EXPECT_EQ(parsed[1].detail, "detail with \"quotes\"");
  EXPECT_FALSE(parsed[1].ctx.valid());
  EXPECT_EQ(parsed[1].duration_us, -1);

  EXPECT_FALSE(ParseTelemetryTraceEvents("{\"schema\": \"something.else\"}", &parsed));
}

// --- End to end --------------------------------------------------------------

// The acceptance property: a batch flush, the server-side store it lands as,
// and the changelog delta a later reader consumed all share the flush's
// trace_id, and the provenance view renders that chain.
TEST(EndToEndTraceTest, OneTraceLinksFlushStoreAndDeltaConsumption) {
  auto& tracer = Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);

  JournalServer server([]() { return SimTime::FromMicros(500); });
  JournalClient client(&server);
  client.set_store_batch_size(4);
  {
    JournalBatchWriter writer(&client, []() { return SimTime::FromMicros(100); });
    InterfaceObservation obs;
    obs.ip = Ipv4Address(0x0A000001u);
    writer.StoreInterface(obs, DiscoverySource::kArpWatch);
  }  // Destructor flushes: one kBatch round trip inside a flush span.

  uint64_t consumer_trace = 0;
  {
    Span consumer(names::kSpanCorrelate, SimTime::FromMicros(600), tracer);
    consumer_trace = consumer.context().trace_id;
    const auto delta = client.GetChangedSince(RecordKind::kInterface, 0);
    ASSERT_TRUE(delta.ok());
    ASSERT_EQ(delta.interfaces.size(), 1u);
    consumer.End(TraceEventKind::kCorrelationPass, SimTime::FromMicros(700));
  }

  const auto events = tracer.Events();
  const TraceEvent* flush = nullptr;
  const TraceEvent* store = nullptr;
  const TraceEvent* link = nullptr;
  for (const auto& event : events) {
    if (event.kind == TraceEventKind::kJournalRpc &&
        event.module == names::kSpanJournalFlush.c_str()) {
      flush = &event;
    }
    if (event.kind == TraceEventKind::kJournalRpc &&
        event.module == names::kSpanJournalServer.c_str() && event.detail == "batch") {
      store = &event;
    }
    if (event.kind == TraceEventKind::kChangelogDelta) {
      link = &event;
    }
  }
  ASSERT_NE(flush, nullptr);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(link, nullptr);

  const uint64_t trace = flush->ctx.trace_id;
  ASSERT_NE(trace, 0u);
  // The server-side store is a child of the flush span, in the same trace.
  EXPECT_EQ(store->ctx.trace_id, trace);
  EXPECT_EQ(store->ctx.parent_span_id, flush->ctx.span_id);
  // The delta-consumption event lands in the *producer's* trace and names
  // the consuming trace in its detail.
  EXPECT_EQ(link->ctx.trace_id, trace);
  EXPECT_NE(consumer_trace, trace);
  EXPECT_NE(link->detail.find("consumed_by_trace=" + std::to_string(consumer_trace)),
            std::string::npos)
      << link->detail;

  const std::string view = TraceProvenanceView(events, trace);
  EXPECT_NE(view.find(names::kSpanJournalFlush.c_str()), std::string::npos) << view;
  EXPECT_NE(view.find(names::kSpanJournalServer.c_str()), std::string::npos) << view;
  EXPECT_NE(view.find("consumed by trace"), std::string::npos) << view;
}

}  // namespace
}  // namespace fremont::telemetry
