// Canonical telemetry metric and span names.
//
// Every Counter/Gauge/Histogram in src/ must be registered through one of
// these constants (or built from one of the shared per-module suffixes)
// rather than a raw "family/name" literal. tools/fremont_lint enforces this:
// a typo'd near-duplicate counter name ("journal_server/byte_in") becomes a
// lint failure instead of a silently forked time series that the JSON export
// and the paper-table tooling would double-count.
//
// Adding a metric: declare the constant here, then use it at the call site.
// Names stay "<family>/<metric>", lowercase, underscores only — the grouping
// convention the exporters and fremont_report --telemetry rely on.
//
// Span names are checked by the compiler instead: see SpanName below.

#ifndef SRC_TELEMETRY_NAMES_H_
#define SRC_TELEMETRY_NAMES_H_

#include <string>

namespace fremont::telemetry {

// The name of a telemetry::Span. Its constructor is explicit, so a string
// literal does not convert to it: the names:: constants below construct it,
// and ModuleRun() names a module run.
class SpanName {
 public:
  // For the names:: constants only.
  constexpr explicit SpanName(const char* name) : name_(name) {}

  // A module run's span is named by the module's registry key ("seqping").
  // The result points into `key`, which must outlive it.
  static SpanName ModuleRun(const std::string& key) { return SpanName(key.c_str()); }

  constexpr const char* c_str() const { return name_; }

 private:
  const char* name_;
};

}  // namespace fremont::telemetry

namespace fremont::telemetry::names {

// --- Journal server ----------------------------------------------------------
inline constexpr char kJournalServerBytesIn[] = "journal_server/bytes_in";
inline constexpr char kJournalServerBytesOut[] = "journal_server/bytes_out";
inline constexpr char kJournalServerMalformedRequests[] = "journal_server/malformed_requests";
inline constexpr char kJournalServerCheckpoints[] = "journal_server/checkpoints";
inline constexpr char kJournalServerRecordsCreated[] = "journal_server/records_created";
inline constexpr char kJournalServerRecordsChanged[] = "journal_server/records_changed";
inline constexpr char kJournalServerBatchOps[] = "journal_server/batch_ops";
inline constexpr char kJournalServerDeltaOps[] = "journal_server/delta_ops";
inline constexpr char kJournalServerInterfaceRecords[] = "journal_server/interface_records";
inline constexpr char kJournalServerGatewayRecords[] = "journal_server/gateway_records";
inline constexpr char kJournalServerSubnetRecords[] = "journal_server/subnet_records";
// Per-op counters append RequestTypeName(type): "journal_server/ops_batch".
inline constexpr char kJournalServerOpsPrefix[] = "journal_server/ops_";
// Per-op sim-time latency histograms, fed from the server request span:
// "journal_server/op_latency_us/batch".
inline constexpr char kJournalServerOpLatencyUsPrefix[] = "journal_server/op_latency_us/";

// --- Journal client ----------------------------------------------------------
inline constexpr char kJournalClientRequests[] = "journal_client/requests";
inline constexpr char kJournalClientBytesSent[] = "journal_client/bytes_sent";
inline constexpr char kJournalClientBytesReceived[] = "journal_client/bytes_received";
inline constexpr char kJournalClientDecodeFailures[] = "journal_client/decode_failures";
inline constexpr char kJournalClientEncodeBytesReused[] = "journal_client/encode_bytes_reused";
inline constexpr char kJournalClientBatchSize[] = "journal_client/batch_size";
inline constexpr char kJournalClientCacheHits[] = "journal_client/cache_hits";
inline constexpr char kJournalClientCacheMisses[] = "journal_client/cache_misses";
inline constexpr char kJournalClientDeltaRecords[] = "journal_client/delta_records";
inline constexpr char kJournalClientFullResyncs[] = "journal_client/full_resyncs";

// --- Journal replication ------------------------------------------------------
inline constexpr char kJournalReplicationLagUs[] = "journal_replication/lag_us";
inline constexpr char kJournalReplicationPulls[] = "journal_replication/pulls";
inline constexpr char kJournalReplicationRecordsPulled[] = "journal_replication/records_pulled";
inline constexpr char kJournalReplicationNewOrChanged[] = "journal_replication/new_or_changed";

// --- Discovery Manager --------------------------------------------------------
inline constexpr char kManagerTicks[] = "manager/ticks";
inline constexpr char kManagerModuleRuns[] = "manager/module_runs";
inline constexpr char kManagerModulesInFlight[] = "manager/modules_in_flight";
inline constexpr char kManagerConcurrentRuns[] = "manager/concurrent_runs";
inline constexpr char kManagerFruitfulness[] = "manager/fruitfulness";
inline constexpr char kManagerIntervalShortened[] = "manager/interval_shortened";
inline constexpr char kManagerIntervalLengthened[] = "manager/interval_lengthened";
inline constexpr char kManagerIntervalHeld[] = "manager/interval_held";

// --- Correlation --------------------------------------------------------------
inline constexpr char kCorrelatePasses[] = "correlate/passes";
inline constexpr char kCorrelateGatewaysInferred[] = "correlate/gateways_inferred";
inline constexpr char kCorrelateIncrementalPasses[] = "correlate/incremental_passes";
inline constexpr char kCorrelateRecordsSkipped[] = "correlate/records_skipped";
inline constexpr char kCorrelateFullRebuilds[] = "correlate/full_rebuilds";

// --- Simulator ----------------------------------------------------------------
inline constexpr char kSimEventsDispatched[] = "sim/events_dispatched";
inline constexpr char kSimQueueDepthHighWater[] = "sim/queue_depth_high_water";

// --- Sharded runtime ----------------------------------------------------------
inline constexpr char kRuntimeShards[] = "runtime/shards";
inline constexpr char kRuntimeWindowBarriers[] = "runtime/window_barriers";
inline constexpr char kRuntimeCrossShardEvents[] = "runtime/cross_shard_events";
inline constexpr char kRuntimeWorkerIdleUs[] = "runtime/worker_idle_us";

// --- Serving layer (fremont_serve) ---------------------------------------------
inline constexpr char kServeSubscribers[] = "serve/subscribers";
inline constexpr char kServePushes[] = "serve/pushes";
inline constexpr char kServePushBytes[] = "serve/push_bytes";
inline constexpr char kServeViewRefreshes[] = "serve/view_refreshes";
inline constexpr char kServeDroppedSubscribers[] = "serve/dropped_subscribers";
inline constexpr char kServeCatchupPushes[] = "serve/catchup_pushes";
inline constexpr char kServeRefreshLatencyUs[] = "serve/refresh_latency_us";
// Per-view read latency histograms: "serve/query_latency_us/problems".
inline constexpr char kServeQueryLatencyUsPrefix[] = "serve/query_latency_us/";

// --- Logging (imported by the exporter from Logging's own tallies) ------------
inline constexpr char kLogWarnings[] = "log/warnings";
inline constexpr char kLogErrors[] = "log/errors";

// --- Telemetry self-observation (imported by the exporter from the tracer) ----
inline constexpr char kTelemetryTraceRecorded[] = "telemetry/trace_recorded";
inline constexpr char kTelemetryTraceDropped[] = "telemetry/trace_dropped";

// --- Span names ----------------------------------------------------------------
// telemetry::Span takes a SpanName, and a string literal does not convert to
// one: a span is named by one of these constants, or, for a module run, by
// SpanName::ModuleRun(key). `Span span("typo", now)` does not compile.
inline constexpr SpanName kSpanJournalServer{"journal_server"};
inline constexpr SpanName kSpanJournalFlush{"journal_client"};
inline constexpr SpanName kSpanCorrelate{"correlate"};
inline constexpr SpanName kSpanManagerTick{"manager"};
inline constexpr SpanName kSpanShardRun{"runtime_shard"};
inline constexpr SpanName kSpanServeRefresh{"serve_refresh"};

// --- Explorer modules ---------------------------------------------------------
// Shared per-run counters are "<module key>/<suffix>"; ExplorerModule's
// Complete() builds them from the module's registry key with these suffixes.
inline constexpr char kSuffixRuns[] = "/runs";
inline constexpr char kSuffixPacketsSent[] = "/packets_sent";
inline constexpr char kSuffixRepliesReceived[] = "/replies_received";
inline constexpr char kSuffixDiscovered[] = "/discovered";
inline constexpr char kSuffixRecordsWritten[] = "/records_written";
inline constexpr char kSuffixNewInfo[] = "/new_info";
inline constexpr char kSuffixRunDurationUs[] = "/run_duration_us";
// Module-specific extras keep full constants.
inline constexpr char kSeqPingTimeouts[] = "seqping/timeouts";
inline constexpr char kDnsTimeouts[] = "dns/timeouts";
inline constexpr char kTracerouteTimeouts[] = "traceroute/timeouts";
inline constexpr char kRipProbeTimeouts[] = "ripprobe/timeouts";
inline constexpr char kServiceProbeTimeouts[] = "serviceprobe/timeouts";
inline constexpr char kSubnetMasksTimeouts[] = "subnetmasks/timeouts";
inline constexpr char kSubnetMasksNegativeCacheSkips[] = "subnetmasks/negative_cache_skips";

}  // namespace fremont::telemetry::names

#endif  // SRC_TELEMETRY_NAMES_H_
