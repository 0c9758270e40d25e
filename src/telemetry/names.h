// Canonical telemetry metric and span names.
//
// A name is a typed constant, not a string: MetricsRegistry's GetCounter,
// GetGauge and GetHistogram take a MetricName, telemetry::Span takes a
// SpanName, and a string literal or std::string converts to neither. Every
// metric and span the tree can emit is therefore declared here, and a typo'd
// near-duplicate ("journal_server/byte_in") fails to compile instead of
// silently forking a time series that the JSON export and the paper-table
// tooling would double-count.
//
// Adding a metric: declare the constant here, then use it at the call site.
// Names stay "<family>/<metric>", lowercase, underscores only — the grouping
// convention the exporters and fremont_report --telemetry rely on. A family
// whose members differ only in a key known at run time (a request type, a
// module key) is a KeyedName; WithKey(key) names one member.

#ifndef SRC_TELEMETRY_NAMES_H_
#define SRC_TELEMETRY_NAMES_H_

#include <string>
#include <string_view>
#include <utility>

namespace fremont::telemetry {

struct SpanNameKind {};
struct MetricNameKind {};

// A telemetry name of one kind. The constructor is explicit, so a string
// literal does not convert to a name: the names:: constants construct them,
// and a KeyedName composes one per key. The implicit const char* conversion
// lets a name reach code that holds it as a plain pointer (the benchmark
// harness reads counters that way).
template <typename Kind>
class Name {
 public:
  // For the names:: constants, KeyedName members, and test- or bench-only
  // constants declared beside their use.
  constexpr explicit Name(const char* name) : name_(name) {}

  constexpr const char* c_str() const { return name_; }
  constexpr operator const char*() const { return name_; }

 private:
  const char* name_;
};

using SpanName = Name<SpanNameKind>;
using MetricName = Name<MetricNameKind>;

// A family of names that differ only in a key known at run time: the member
// for `key` is prefix + key + suffix ("journal_server/ops_" + "batch").
// WithKey returns the member's text, which converts to a Name for as long as
// it lives, so pass it straight to the call that takes the Name (the
// registry and Span copy it).
template <typename Kind>
class KeyedName {
 public:
  class Member {
   public:
    operator Name<Kind>() const { return Name<Kind>(text_.c_str()); }

   private:
    friend KeyedName;
    explicit Member(std::string text) : text_(std::move(text)) {}
    std::string text_;
  };

  constexpr KeyedName(const char* prefix, const char* suffix) : prefix_(prefix), suffix_(suffix) {}

  Member WithKey(std::string_view key) const {
    std::string text(prefix_);
    text.append(key);
    text.append(suffix_);
    return Member(std::move(text));
  }

 private:
  const char* prefix_;
  const char* suffix_;
};

using KeyedSpanName = KeyedName<SpanNameKind>;
using KeyedMetricName = KeyedName<MetricNameKind>;

}  // namespace fremont::telemetry

namespace fremont::telemetry::names {

// --- Journal server ----------------------------------------------------------
inline constexpr MetricName kJournalServerBytesIn{"journal_server/bytes_in"};
inline constexpr MetricName kJournalServerBytesOut{"journal_server/bytes_out"};
inline constexpr MetricName kJournalServerMalformedRequests{"journal_server/malformed_requests"};
inline constexpr MetricName kJournalServerCheckpoints{"journal_server/checkpoints"};
inline constexpr MetricName kJournalServerRecordsCreated{"journal_server/records_created"};
inline constexpr MetricName kJournalServerRecordsChanged{"journal_server/records_changed"};
inline constexpr MetricName kJournalServerBatchOps{"journal_server/batch_ops"};
inline constexpr MetricName kJournalServerDeltaOps{"journal_server/delta_ops"};
inline constexpr MetricName kJournalServerInterfaceRecords{"journal_server/interface_records"};
inline constexpr MetricName kJournalServerGatewayRecords{"journal_server/gateway_records"};
inline constexpr MetricName kJournalServerSubnetRecords{"journal_server/subnet_records"};
// Per-op counters, keyed by RequestTypeName(type): "journal_server/ops_batch".
inline constexpr KeyedMetricName kJournalServerOps{"journal_server/ops_", ""};
// Per-op sim-time latency histograms, fed from the server request span:
// "journal_server/op_latency_us/batch".
inline constexpr KeyedMetricName kJournalServerOpLatencyUs{"journal_server/op_latency_us/", ""};

// --- Journal client ----------------------------------------------------------
inline constexpr MetricName kJournalClientRequests{"journal_client/requests"};
inline constexpr MetricName kJournalClientBytesSent{"journal_client/bytes_sent"};
inline constexpr MetricName kJournalClientBytesReceived{"journal_client/bytes_received"};
inline constexpr MetricName kJournalClientDecodeFailures{"journal_client/decode_failures"};
inline constexpr MetricName kJournalClientEncodeBytesReused{"journal_client/encode_bytes_reused"};
inline constexpr MetricName kJournalClientBatchSize{"journal_client/batch_size"};
// A query-cached whole-table read whose table was patched from a delta.
inline constexpr MetricName kJournalClientCacheHits{"journal_client/cache_hits"};
// A query-cached whole-table read whose table was refetched whole (first use
// or past the changelog horizon).
inline constexpr MetricName kJournalClientCacheMisses{"journal_client/cache_misses"};
inline constexpr MetricName kJournalClientDeltaRecords{"journal_client/delta_records"};
inline constexpr MetricName kJournalClientFullResyncs{"journal_client/full_resyncs"};

// --- Journal replication ------------------------------------------------------
inline constexpr MetricName kJournalReplicationLagUs{"journal_replication/lag_us"};
inline constexpr MetricName kJournalReplicationPulls{"journal_replication/pulls"};
inline constexpr MetricName kJournalReplicationRecordsPulled{"journal_replication/records_pulled"};
inline constexpr MetricName kJournalReplicationNewOrChanged{"journal_replication/new_or_changed"};

// --- Discovery Manager --------------------------------------------------------
inline constexpr MetricName kManagerTicks{"manager/ticks"};
inline constexpr MetricName kManagerModuleRuns{"manager/module_runs"};
inline constexpr MetricName kManagerModulesInFlight{"manager/modules_in_flight"};
inline constexpr MetricName kManagerConcurrentRuns{"manager/concurrent_runs"};
inline constexpr MetricName kManagerFruitfulness{"manager/fruitfulness"};
inline constexpr MetricName kManagerIntervalShortened{"manager/interval_shortened"};
inline constexpr MetricName kManagerIntervalLengthened{"manager/interval_lengthened"};
inline constexpr MetricName kManagerIntervalHeld{"manager/interval_held"};

// --- Correlation --------------------------------------------------------------
inline constexpr MetricName kCorrelatePasses{"correlate/passes"};
inline constexpr MetricName kCorrelateGatewaysInferred{"correlate/gateways_inferred"};
inline constexpr MetricName kCorrelateIncrementalPasses{"correlate/incremental_passes"};
inline constexpr MetricName kCorrelateRecordsSkipped{"correlate/records_skipped"};
inline constexpr MetricName kCorrelateFullRebuilds{"correlate/full_rebuilds"};

// --- Simulator ----------------------------------------------------------------
inline constexpr MetricName kSimEventsDispatched{"sim/events_dispatched"};
inline constexpr MetricName kSimQueueDepthHighWater{"sim/queue_depth_high_water"};

// --- Sharded runtime ----------------------------------------------------------
inline constexpr MetricName kRuntimeShards{"runtime/shards"};
inline constexpr MetricName kRuntimeWindowBarriers{"runtime/window_barriers"};
inline constexpr MetricName kRuntimeCrossShardEvents{"runtime/cross_shard_events"};
inline constexpr MetricName kRuntimeWorkerIdleUs{"runtime/worker_idle_us"};

// --- Serving layer (fremont_serve) ---------------------------------------------
inline constexpr MetricName kServeSubscribers{"serve/subscribers"};
inline constexpr MetricName kServePushes{"serve/pushes"};
inline constexpr MetricName kServePushBytes{"serve/push_bytes"};
inline constexpr MetricName kServeViewRefreshes{"serve/view_refreshes"};
inline constexpr MetricName kServeDroppedSubscribers{"serve/dropped_subscribers"};
inline constexpr MetricName kServeCatchupPushes{"serve/catchup_pushes"};
inline constexpr MetricName kServeRefreshLatencyUs{"serve/refresh_latency_us"};
// Per-view read latency histograms, keyed by ViewKindName(kind):
// "serve/query_latency_us/problems".
inline constexpr KeyedMetricName kServeQueryLatencyUs{"serve/query_latency_us/", ""};

// --- Logging (imported by the exporter from Logging's own tallies) ------------
inline constexpr MetricName kLogWarnings{"log/warnings"};
inline constexpr MetricName kLogErrors{"log/errors"};

// --- Telemetry self-observation (imported by the exporter from the tracer) ----
inline constexpr MetricName kTelemetryTraceRecorded{"telemetry/trace_recorded"};
inline constexpr MetricName kTelemetryTraceDropped{"telemetry/trace_dropped"};

// --- Span names ----------------------------------------------------------------
// `Span span("typo", now)` does not compile: a span is named by one of these.
inline constexpr SpanName kSpanJournalServer{"journal_server"};
inline constexpr SpanName kSpanJournalFlush{"journal_client"};
inline constexpr SpanName kSpanCorrelate{"correlate"};
inline constexpr SpanName kSpanManagerTick{"manager"};
inline constexpr SpanName kSpanShardRun{"runtime_shard"};
inline constexpr SpanName kSpanServeRefresh{"serve_refresh"};
// A module run's span is named by the module's registry key ("seqping").
inline constexpr KeyedSpanName kSpanModuleRun{"", ""};

// --- Explorer modules ---------------------------------------------------------
// Shared per-run counters, keyed by the module's registry key: "seqping/runs".
// ExplorerModule's Complete() publishes them.
inline constexpr KeyedMetricName kModuleRuns{"", "/runs"};
inline constexpr KeyedMetricName kModulePacketsSent{"", "/packets_sent"};
inline constexpr KeyedMetricName kModuleRepliesReceived{"", "/replies_received"};
inline constexpr KeyedMetricName kModuleDiscovered{"", "/discovered"};
inline constexpr KeyedMetricName kModuleRecordsWritten{"", "/records_written"};
inline constexpr KeyedMetricName kModuleNewInfo{"", "/new_info"};
inline constexpr KeyedMetricName kModuleRunDurationUs{"", "/run_duration_us"};
// Module-specific extras keep full constants.
inline constexpr MetricName kSeqPingTimeouts{"seqping/timeouts"};
inline constexpr MetricName kDnsTimeouts{"dns/timeouts"};
inline constexpr MetricName kTracerouteTimeouts{"traceroute/timeouts"};
inline constexpr MetricName kRipProbeTimeouts{"ripprobe/timeouts"};
inline constexpr MetricName kServiceProbeTimeouts{"serviceprobe/timeouts"};
inline constexpr MetricName kSubnetMasksTimeouts{"subnetmasks/timeouts"};
inline constexpr MetricName kSubnetMasksNegativeCacheSkips{"subnetmasks/negative_cache_skips"};

}  // namespace fremont::telemetry::names

#endif  // SRC_TELEMETRY_NAMES_H_
