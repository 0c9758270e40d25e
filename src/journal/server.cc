#include "src/journal/server.h"

#include <algorithm>
#include <cinttypes>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace fremont {
namespace {

// Requests that mutate the Journal (records, generation, changelog) and so
// need the exclusive side of the ingest lock.
bool IsWriteRequest(RequestType type) {
  return type == RequestType::kBatch || IsBatchableType(type);
}

// The per-op instruments, resolved once per RequestType instead of building
// the name and taking the registry mutex on every request. One slot per
// possible type byte, so any RequestType indexes in bounds.
constexpr size_t kTypeSlots = std::numeric_limits<std::underlying_type_t<RequestType>>::max() + 1;
constinit telemetry::KeyedInstruments<telemetry::Counter, RequestType, kTypeSlots> g_op_counters(
    telemetry::names::kJournalServerOps, RequestTypeName);
constinit telemetry::KeyedInstruments<telemetry::Histogram, RequestType, kTypeSlots>
    g_op_latency_histograms(telemetry::names::kJournalServerOpLatencyUs, RequestTypeName);

}  // namespace

JournalServer::~JournalServer() {
  // Destruction implies quiescence, but the hold is free and keeps the
  // at-termination save on the same discipline as every other access.
  const WriterMutexLock lock(ingest_mu_);
  if (!checkpoint_path_.empty()) {
    journal_.SaveToFile(checkpoint_path_);  // "and at termination".
  }
}

void JournalServer::EnableCheckpoint(std::string path, Duration interval) {
  // Exclusive: callers may enable checkpointing while request traffic is
  // already in flight, and MaybeCheckpoint reads this state under the lock.
  {
    const WriterMutexLock lock(ingest_mu_);
    checkpoint_path_ = std::move(path);
    checkpoint_interval_ = interval;
    last_checkpoint_ = clock_();
  }
  checkpoint_enabled_.store(interval > Duration::Zero(), std::memory_order_release);
}

void JournalServer::MaybeCheckpoint() {
  // Lock-free fast path: most servers never enable checkpointing, and the
  // per-request cost must stay one relaxed load, not a writer acquisition.
  if (!checkpoint_enabled_.load(std::memory_order_acquire)) {
    return;
  }
  const WriterMutexLock lock(ingest_mu_);
  if (checkpoint_path_.empty() || checkpoint_interval_ <= Duration::Zero()) {
    return;
  }
  const SimTime now = clock_();
  if (now - last_checkpoint_ >= checkpoint_interval_) {
    journal_.SaveToFile(checkpoint_path_);
    last_checkpoint_ = now;
    telemetry::MetricsRegistry::Global().GetCounter(telemetry::names::kJournalServerCheckpoints)->Increment();
  }
}

ByteBuffer JournalServer::HandleRequest(const ByteBuffer& request_bytes) {
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.GetCounter(telemetry::names::kJournalServerBytesIn)
      ->Add(static_cast<int64_t>(request_bytes.size()));
  auto request = JournalRequest::Decode(request_bytes);
  if (!request.has_value()) {
    metrics.GetCounter(telemetry::names::kJournalServerMalformedRequests)->Increment();
    JournalResponse resp;
    resp.status = ResponseStatus::kMalformedRequest;
    return resp.Encode();
  }
  JournalResponse resp = Handle(*request);
  MaybeCheckpoint();
  ByteBuffer response_bytes = resp.Encode();
  metrics.GetCounter(telemetry::names::kJournalServerBytesOut)
      ->Add(static_cast<int64_t>(response_bytes.size()));
  return response_bytes;
}

BatchItemResult JournalServer::ApplyWrite(const JournalRequest& item, SimTime now) {
  // Deferred stores carry the time the module actually made the observation;
  // records end up stamped as if each store had been sent eagerly. The clamp
  // here rejects future stamps; the Journal's store paths clamp the other
  // direction (verification times only move forward), so a long-buffered
  // store flushing after a fresher verify cannot rewind a record's stamps.
  const SimTime stamp =
      item.obs_time.has_value() ? std::min(*item.obs_time, now) : now;
  BatchItemResult r;
  Journal::StoreResult result;
  switch (item.type) {
    case RequestType::kStoreInterface:
      if (!item.interface_obs.has_value()) {
        r.status = ResponseStatus::kMalformedRequest;
        return r;
      }
      result = journal_.StoreInterface(*item.interface_obs, item.source, stamp);
      break;
    case RequestType::kStoreGateway:
      if (!item.gateway_obs.has_value()) {
        r.status = ResponseStatus::kMalformedRequest;
        return r;
      }
      result = journal_.StoreGateway(*item.gateway_obs, item.source, stamp);
      break;
    case RequestType::kStoreSubnet:
      if (!item.subnet_obs.has_value()) {
        r.status = ResponseStatus::kMalformedRequest;
        return r;
      }
      result = journal_.StoreSubnet(*item.subnet_obs, item.source, stamp);
      break;
    case RequestType::kDeleteInterface:
      r.status = journal_.DeleteInterface(item.delete_id) ? ResponseStatus::kOk
                                                          : ResponseStatus::kNotFound;
      return r;
    case RequestType::kDeleteGateway:
      r.status = journal_.DeleteGateway(item.delete_id) ? ResponseStatus::kOk
                                                        : ResponseStatus::kNotFound;
      return r;
    case RequestType::kDeleteSubnet:
      r.status = journal_.DeleteSubnet(item.delete_id) ? ResponseStatus::kOk
                                                       : ResponseStatus::kNotFound;
      return r;
    case RequestType::kGetInterfaces:
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets:
    case RequestType::kGetStats:
    case RequestType::kBatch:
    case RequestType::kGetChangedSince:
    case RequestType::kSubscribe:
    case RequestType::kUnsubscribe:
    case RequestType::kPushUpdate:
      r.status = ResponseStatus::kMalformedRequest;
      return r;
  }
  r.record_id = result.id;
  r.created = result.created;
  r.changed = result.changed;
  auto& metrics = telemetry::MetricsRegistry::Global();
  if (r.created) {
    metrics.GetCounter(telemetry::names::kJournalServerRecordsCreated)->Increment();
  } else if (r.changed) {
    metrics.GetCounter(telemetry::names::kJournalServerRecordsChanged)->Increment();
  }
  return r;
}

JournalResponse JournalServer::Handle(const JournalRequest& request) {
  requests_handled_.fetch_add(1, std::memory_order_relaxed);
  const SimTime now = clock_();
  g_op_counters.Get(request.type)->Increment();
  // The server-side span: parented on the span context the request carried
  // over the wire (if any), so a client's flush and the store it caused share
  // one trace. While the dispatch runs, the Journal stamps every changelog
  // entry with this span — that is what lets a later delta read name the
  // store that produced each change.
  telemetry::Span span(telemetry::names::kSpanJournalServer, now, telemetry::Tracer::Global(),
                       request.span_ctx);
  JournalResponse resp;
  if (IsWriteRequest(request.type)) {
    // Exclusive: record mutation, generation bump, and changelog append are
    // one atomic unit, and the store context (used to stamp changelog
    // entries) is per-request state on the shared Journal.
    const WriterMutexLock lock(ingest_mu_);
    journal_.set_store_context(span.context().trace_id, span.context().span_id);
    resp = Dispatch(request, now);
    journal_.set_store_context(0, 0);
    resp.generation = journal_.generation();
  } else {
    // Shared: queries (including changelog delta reads) never mutate, so
    // they may overlap each other freely.
    const ReaderMutexLock lock(ingest_mu_);
    resp = DispatchRead(request, now);
    resp.generation = journal_.generation();
  }
  const SimTime after = clock_();
  span.End(telemetry::TraceEventKind::kJournalRpc, after, RequestTypeName(request.type));
  g_op_latency_histograms.Get(request.type)->Observe(span.duration_us());
  return resp;
}

JournalResponse JournalServer::Dispatch(const JournalRequest& request, SimTime now) {
  auto& metrics = telemetry::MetricsRegistry::Global();
  JournalResponse resp;

  switch (request.type) {
    case RequestType::kStoreInterface:
    case RequestType::kStoreGateway:
    case RequestType::kStoreSubnet: {
      BatchItemResult r = ApplyWrite(request, now);
      resp.status = r.status;
      resp.record_id = r.record_id;
      resp.created = r.created;
      resp.changed = r.changed;
      break;
    }
    case RequestType::kBatch: {
      bool nested = false;
      for (const auto& item : request.batch) {
        if (!IsBatchableType(item.type)) {
          nested = true;  // Decode rejects these; guard typed-dispatch callers too.
          break;
        }
      }
      if (nested) {
        resp.status = ResponseStatus::kMalformedRequest;
        break;
      }
      metrics.GetCounter(telemetry::names::kJournalServerBatchOps)
          ->Add(static_cast<int64_t>(request.batch.size()));
      resp.batch_results.reserve(request.batch.size());
      for (const auto& item : request.batch) {
        resp.batch_results.push_back(ApplyWrite(item, now));
      }
      break;
    }
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
      resp.status = ApplyWrite(request, now).status;
      break;
    case RequestType::kGetInterfaces:
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets:
    case RequestType::kGetStats:
    case RequestType::kGetChangedSince:
    case RequestType::kSubscribe:
    case RequestType::kUnsubscribe:
    case RequestType::kPushUpdate:
      // Reads under the exclusive hold: exclusive implies shared, so a
      // typed-dispatch caller routing a query through the write path still
      // gets the right answer.
      return DispatchRead(request, now);
  }

  if (resp.status == ResponseStatus::kOk) {
    const JournalStats stats = journal_.Stats();
    metrics.GetGauge(telemetry::names::kJournalServerInterfaceRecords)
        ->Set(static_cast<int64_t>(stats.interface_count));
    metrics.GetGauge(telemetry::names::kJournalServerGatewayRecords)
        ->Set(static_cast<int64_t>(stats.gateway_count));
    metrics.GetGauge(telemetry::names::kJournalServerSubnetRecords)
        ->Set(static_cast<int64_t>(stats.subnet_count));
  }
  return resp;
}

JournalResponse JournalServer::DispatchRead(const JournalRequest& request, SimTime now) {
  auto& metrics = telemetry::MetricsRegistry::Global();
  JournalResponse resp;

  switch (request.type) {
    case RequestType::kGetInterfaces: {
      const Selector& sel = request.selector;
      switch (sel.kind) {
        case Selector::Kind::kAll:
          resp.interfaces = journal_.AllInterfaces();
          break;
        case Selector::Kind::kByIp:
          resp.interfaces = journal_.FindInterfacesByIp(sel.ip);
          break;
        case Selector::Kind::kByMac:
          resp.interfaces = journal_.FindInterfacesByMac(sel.mac);
          break;
        case Selector::Kind::kByName:
          resp.interfaces = journal_.FindInterfacesByName(sel.name);
          break;
        case Selector::Kind::kInRange:
          resp.interfaces = journal_.FindInterfacesInRange(sel.ip, sel.ip_hi);
          break;
        case Selector::Kind::kModifiedSince:
          resp.interfaces = journal_.FindInterfacesModifiedSince(sel.since);
          break;
        case Selector::Kind::kById:
          if (const auto* rec = journal_.GetInterface(sel.record_id); rec != nullptr) {
            resp.interfaces.push_back(*rec);
          }
          break;
      }
      if (resp.interfaces.empty()) {
        resp.status = ResponseStatus::kNotFound;
      }
      break;
    }
    case RequestType::kGetGateways:
      resp.gateways = journal_.AllGateways();
      if (resp.gateways.empty()) {
        resp.status = ResponseStatus::kNotFound;
      }
      break;
    case RequestType::kGetSubnets:
      resp.subnets = journal_.AllSubnets();
      if (resp.subnets.empty()) {
        resp.status = ResponseStatus::kNotFound;
      }
      break;
    case RequestType::kGetStats: {
      JournalStats stats = journal_.Stats();
      resp.interface_count = static_cast<uint32_t>(stats.interface_count);
      resp.gateway_count = static_cast<uint32_t>(stats.gateway_count);
      resp.subnet_count = static_cast<uint32_t>(stats.subnet_count);
      break;
    }
    case RequestType::kSubscribe:
      // Routed to the serving layer under the shared lock (a subscription is
      // not a Journal write; the broker has its own mutex).
      if (broker_ == nullptr) {
        resp.status = ResponseStatus::kMalformedRequest;
        break;
      }
      resp = broker_->HandleSubscribe(request);
      break;
    case RequestType::kUnsubscribe:
      if (broker_ == nullptr) {
        resp.status = ResponseStatus::kMalformedRequest;
        break;
      }
      resp = broker_->HandleUnsubscribe(request);
      break;
    case RequestType::kPushUpdate:
      // Server→client frame only; it never arrives here as a request.
      resp.status = ResponseStatus::kMalformedRequest;
      break;
    case RequestType::kGetChangedSince: {
      metrics.GetCounter(telemetry::names::kJournalServerDeltaOps)->Increment();
      const Journal::Delta delta =
          journal_.CollectChangesSince(request.changed_kind, request.since_generation);
      if (!delta.servable) {
        resp.status = ResponseStatus::kFullResyncRequired;
        break;
      }
      for (const auto& entry : delta.entries) {
        if (entry.change == ChangeKind::kDelete) {
          resp.tombstones.push_back(entry.id);
          continue;
        }
        // Compaction guarantees a live kStore entry references a live record;
        // the null checks are belt-and-braces.
        switch (request.changed_kind) {
          case RecordKind::kInterface:
            if (const auto* rec = journal_.GetInterface(entry.id); rec != nullptr) {
              resp.interfaces.push_back(*rec);
            }
            break;
          case RecordKind::kGateway:
            if (const auto* rec = journal_.GetGateway(entry.id); rec != nullptr) {
              resp.gateways.push_back(*rec);
            }
            break;
          case RecordKind::kSubnet:
            if (const auto* rec = journal_.GetSubnet(entry.id); rec != nullptr) {
              resp.subnets.push_back(*rec);
            }
            break;
        }
      }
      // Causal link: one kChangelogDelta event per distinct producer span in
      // the served delta, recorded into the *producer's* trace and naming the
      // consuming trace in its detail. That is the join fremont_report's
      // provenance view follows from a store to the correlation pass that
      // read it.
      auto& tracer = telemetry::Tracer::Global();
      if (tracer.enabled() && !delta.entries.empty()) {
        const uint64_t consumer_trace = telemetry::CurrentSpanContext(tracer).trace_id;
        std::vector<std::pair<std::pair<uint64_t, uint64_t>, size_t>> producers;
        for (const auto& entry : delta.entries) {
          if (entry.trace_id == 0) {
            continue;
          }
          const std::pair<uint64_t, uint64_t> key{entry.trace_id, entry.span_id};
          auto it = std::find_if(producers.begin(), producers.end(),
                                 [&key](const auto& p) { return p.first == key; });
          if (it == producers.end()) {
            producers.emplace_back(key, 1);
          } else {
            ++it->second;
          }
        }
        for (const auto& [producer, n] : producers) {
          const telemetry::SpanContext link{producer.first, tracer.NewSpanId(), producer.second};
          tracer.RecordSpan(now, telemetry::TraceEventKind::kChangelogDelta,
                            telemetry::names::kSpanJournalServer.c_str(),
                            StringPrintf("kind=%d n=%zu consumed_by_trace=%" PRIu64,
                                         static_cast<int>(request.changed_kind), n,
                                         consumer_trace),
                            link, 0);
        }
      }
      break;
    }
    case RequestType::kStoreInterface:
    case RequestType::kStoreGateway:
    case RequestType::kStoreSubnet:
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
    case RequestType::kBatch:
      // Writes never reach the shared path: Handle() routes them through
      // Dispatch(), and Dispatch() only delegates non-writes here.
      resp.status = ResponseStatus::kMalformedRequest;
      break;
  }
  return resp;
}

}  // namespace fremont
