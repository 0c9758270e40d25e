#include "src/journal/client.h"

#include <algorithm>

#include "src/journal/batch_writer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace.h"
#include "src/util/string_util.h"

namespace fremont {

namespace {

// A query-cached whole-table read: brings the mirrored table current and
// returns it. A failed read counts nothing and returns the table as it was.
template <typename Record>
std::vector<Record> ReadCurrent(JournalClient& client, MirroredTable<Record>& table) {
  const TableSync<Record> sync = table.Sync(client);
  if (sync.failed) {
    return table.records();
  }
  telemetry::MetricsRegistry::Global()
      .GetCounter(sync.refetched ? telemetry::names::kJournalClientCacheMisses
                                 : telemetry::names::kJournalClientCacheHits)
      ->Increment();
  // Untimed breadcrumb in the consumer's trace: the table this pass read was
  // repaired from deltas, not refetched.
  auto& tracer = telemetry::Tracer::Global();
  if (!sync.refetched && tracer.enabled()) {
    const auto tombstones = static_cast<size_t>(
        std::count_if(sync.changes.begin(), sync.changes.end(),
                      [](const RecordChange<Record>& change) { return !change.after; }));
    tracer.Record(SimTime::FromMicros(0), telemetry::TraceEventKind::kChangelogDelta,
                  "query_cache",
                  StringPrintf("patched kind=%d records=%zu tombstones=%zu",
                               static_cast<int>(table.kind()), sync.changes.size() - tombstones,
                               tombstones));
  }
  return table.records();
}

}  // namespace

JournalClient::~JournalClient() {
  // Writers normally outlive nothing: they flush and detach in their own
  // destructors. If one is still attached here, orphan it so its destructor
  // does not touch a dead client.
  for (JournalBatchWriter* writer : writers_) {
    writer->OrphanFromClient();
  }
}

void JournalClient::AttachWriter(JournalBatchWriter* writer) { writers_.push_back(writer); }

void JournalClient::DetachWriter(JournalBatchWriter* writer) {
  writers_.erase(std::remove(writers_.begin(), writers_.end(), writer), writers_.end());
}

void JournalClient::FlushAttachedWriters() {
  for (JournalBatchWriter* writer : writers_) {
    writer->Flush();
  }
}

JournalResponse JournalClient::RoundTrip(const JournalRequest& request) {
  if (request.type != RequestType::kBatch) {
    // Read-your-writes: buffered stores must land before any other request.
    // Flush() itself arrives here as kBatch, which keeps this from recursing.
    FlushAttachedWriters();
  }
  const size_t reusable = scratch_.capacity();
  scratch_.Clear();
  request.EncodeTo(scratch_);
  return Transact(reusable);
}

JournalResponse JournalClient::Transact(size_t reusable) {
  ++requests_sent_;
  auto& metrics = telemetry::MetricsRegistry::Global();
  if (reusable > 0) {
    metrics.GetCounter(telemetry::names::kJournalClientEncodeBytesReused)
        ->Add(static_cast<int64_t>(std::min(reusable, scratch_.size())));
  }
  metrics.GetCounter(telemetry::names::kJournalClientRequests)->Increment();
  metrics.GetCounter(telemetry::names::kJournalClientBytesSent)->Add(static_cast<int64_t>(scratch_.size()));
  ByteBuffer response_bytes = transport_(scratch_.buffer());
  metrics.GetCounter(telemetry::names::kJournalClientBytesReceived)
      ->Add(static_cast<int64_t>(response_bytes.size()));
  auto response = JournalResponse::Decode(response_bytes);
  if (!response.has_value()) {
    JournalResponse bad;
    bad.status = ResponseStatus::kMalformedRequest;
    metrics.GetCounter(telemetry::names::kJournalClientDecodeFailures)->Increment();
    return bad;
  }
  last_seen_generation_ = response->generation;
  return std::move(*response);
}

JournalClient::StoreResult JournalClient::StoreInterface(const InterfaceObservation& obs,
                                                         DiscoverySource source) {
  JournalRequest req;
  req.type = RequestType::kStoreInterface;
  req.source = source;
  req.interface_obs = obs;
  JournalResponse resp = RoundTrip(req);
  return StoreResult{resp.record_id, resp.created, resp.changed,
                     resp.status == ResponseStatus::kOk};
}

JournalClient::StoreResult JournalClient::StoreGateway(const GatewayObservation& obs,
                                                       DiscoverySource source) {
  JournalRequest req;
  req.type = RequestType::kStoreGateway;
  req.source = source;
  req.gateway_obs = obs;
  JournalResponse resp = RoundTrip(req);
  return StoreResult{resp.record_id, resp.created, resp.changed,
                     resp.status == ResponseStatus::kOk};
}

JournalClient::StoreResult JournalClient::StoreSubnet(const SubnetObservation& obs,
                                                      DiscoverySource source) {
  JournalRequest req;
  req.type = RequestType::kStoreSubnet;
  req.source = source;
  req.subnet_obs = obs;
  JournalResponse resp = RoundTrip(req);
  return StoreResult{resp.record_id, resp.created, resp.changed,
                     resp.status == ResponseStatus::kOk};
}

std::vector<BatchItemResult> JournalClient::StoreBatch(std::vector<JournalRequest> items) {
  return StoreBatch(items.data(), items.size());
}

std::vector<BatchItemResult> JournalClient::StoreBatch(const JournalRequest* items, size_t count) {
  if (count == 0) {
    return {};
  }
  telemetry::MetricsRegistry::Global()
      .GetHistogram(telemetry::names::kJournalClientBatchSize, {1, 2, 4, 8, 16, 32, 64, 128, 256})
      ->Observe(static_cast<int64_t>(count));
  const size_t reusable = scratch_.capacity();
  scratch_.Clear();
  // The caller's active span (the batch writer's flush span, usually) rides
  // the wire so the server-side store lands in the same trace.
  JournalRequest::EncodeBatchFrame(scratch_, DiscoverySource::kNone, items, count,
                                   telemetry::CurrentSpanContext(telemetry::Tracer::Global()));
  JournalResponse resp = Transact(reusable);
  if (resp.status != ResponseStatus::kOk || resp.batch_results.size() != count) {
    // Whole-batch failure: report every item as failed rather than lying
    // about partial success.
    std::vector<BatchItemResult> failed(count);
    for (auto& item : failed) {
      item.status = ResponseStatus::kMalformedRequest;
    }
    return failed;
  }
  return std::move(resp.batch_results);
}

std::vector<InterfaceRecord> JournalClient::GetInterfaces(const Selector& selector) {
  if (cache_.has_value() && selector.kind == Selector::Kind::kAll) {
    return ReadCurrent(*this, cache_->interfaces());
  }
  JournalRequest req;
  req.type = RequestType::kGetInterfaces;
  req.selector = selector;
  return RoundTrip(req).interfaces;
}

std::optional<InterfaceRecord> JournalClient::GetInterfaceById(RecordId id) {
  auto records = GetInterfaces(Selector::ById(id));
  if (records.empty()) {
    return std::nullopt;
  }
  return records.front();
}

std::vector<GatewayRecord> JournalClient::GetGateways() {
  if (cache_.has_value()) {
    return ReadCurrent(*this, cache_->gateways());
  }
  JournalRequest req;
  req.type = RequestType::kGetGateways;
  return RoundTrip(req).gateways;
}

JournalClient::DeltaResult JournalClient::GetChangedSince(RecordKind kind,
                                                          uint64_t since_generation) {
  JournalRequest req;
  req.type = RequestType::kGetChangedSince;
  req.changed_kind = kind;
  req.since_generation = since_generation;
  // Carry the caller's span (the correlation pass) so the server can link
  // the served delta's producer traces to this consumer.
  req.span_ctx = telemetry::CurrentSpanContext(telemetry::Tracer::Global());
  JournalResponse resp = RoundTrip(req);
  auto& metrics = telemetry::MetricsRegistry::Global();
  DeltaResult result;
  result.status = resp.status;
  result.generation = resp.generation;
  if (resp.status == ResponseStatus::kFullResyncRequired) {
    metrics.GetCounter(telemetry::names::kJournalClientFullResyncs)->Increment();
    return result;
  }
  result.interfaces = std::move(resp.interfaces);
  result.gateways = std::move(resp.gateways);
  result.subnets = std::move(resp.subnets);
  result.tombstones = std::move(resp.tombstones);
  metrics.GetCounter(telemetry::names::kJournalClientDeltaRecords)
      ->Add(static_cast<int64_t>(result.record_count()));
  return result;
}

JournalClient::SubscribeResult JournalClient::Subscribe(uint32_t channel_id, uint16_t view_mask,
                                                        uint64_t since_generation) {
  JournalRequest req;
  req.type = RequestType::kSubscribe;
  req.subscriber_id = channel_id;
  req.view_mask = view_mask;
  req.since_generation = since_generation;
  JournalResponse resp = RoundTrip(req);
  SubscribeResult result;
  result.ok = resp.status == ResponseStatus::kOk;
  result.subscriber_id = resp.record_id;
  result.generation = resp.generation;
  return result;
}

bool JournalClient::Unsubscribe(uint32_t subscriber_id) {
  JournalRequest req;
  req.type = RequestType::kUnsubscribe;
  req.subscriber_id = subscriber_id;
  return RoundTrip(req).status == ResponseStatus::kOk;
}

std::vector<SubnetRecord> JournalClient::GetSubnets() {
  if (cache_.has_value()) {
    return ReadCurrent(*this, cache_->subnets());
  }
  JournalRequest req;
  req.type = RequestType::kGetSubnets;
  return RoundTrip(req).subnets;
}

bool JournalClient::DeleteInterface(RecordId id) {
  JournalRequest req;
  req.type = RequestType::kDeleteInterface;
  req.delete_id = id;
  return RoundTrip(req).status == ResponseStatus::kOk;
}

bool JournalClient::DeleteGateway(RecordId id) {
  JournalRequest req;
  req.type = RequestType::kDeleteGateway;
  req.delete_id = id;
  return RoundTrip(req).status == ResponseStatus::kOk;
}

bool JournalClient::DeleteSubnet(RecordId id) {
  JournalRequest req;
  req.type = RequestType::kDeleteSubnet;
  req.delete_id = id;
  return RoundTrip(req).status == ResponseStatus::kOk;
}

JournalStats JournalClient::GetStats() {
  JournalRequest req;
  req.type = RequestType::kGetStats;
  JournalResponse resp = RoundTrip(req);
  return JournalStats{resp.interface_count, resp.gateway_count, resp.subnet_count};
}

}  // namespace fremont
