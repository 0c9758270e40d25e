#include "src/journal/query_cache.h"

#include <algorithm>
#include <type_traits>

#include "src/journal/client.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/trace.h"
#include "src/util/string_util.h"

namespace fremont {

namespace {
// Cache key: the request's v1 wire form (type + source + selector), which is
// exactly what distinguishes one query from another.
std::string KeyFor(const JournalRequest& request) {
  ByteBuffer bytes = request.Encode();
  return std::string(bytes.begin(), bytes.end());
}
}  // namespace

template <typename Record>
bool JournalQueryCache::Current(MirroredTable<Record>& table) {
  auto& metrics = telemetry::MetricsRegistry::Global();
  // Read-your-writes: buffered batch-writer stores must land (bumping the
  // Journal's generation) before a generation match can prove the table
  // current. The delta read flushes on its own, but the exclusive fast path
  // below answers without one. No-op when nothing is queued.
  client_->FlushAttachedWriters();
  if (exclusive_ && table.generation() == client_->last_seen_generation()) {
    // Sole mutator + unchanged generation ⇒ the Journal cannot differ from
    // the mirror. No wire traffic at all.
    ++stats_.hits;
    metrics.GetCounter(telemetry::names::kJournalClientCacheHits)->Increment();
    return true;
  }
  const bool resync = table.generation().has_value();
  const TableSync<Record> sync = table.Sync(*client_, /*from_wire=*/true);
  if (sync.failed) {
    return false;
  }
  if (sync.refetched) {
    if (resync) {
      ++stats_.resyncs;
    }
    ++stats_.misses;
    metrics.GetCounter(telemetry::names::kJournalClientCacheMisses)->Increment();
    return true;
  }
  ++stats_.patches;
  metrics.GetCounter(telemetry::names::kJournalClientCacheHits)->Increment();
  // Untimed breadcrumb in the consumer's trace: the table this pass read was
  // repaired from deltas, not refetched.
  auto& tracer = telemetry::Tracer::Global();
  if (tracer.enabled()) {
    const auto tombstones = static_cast<size_t>(
        std::count_if(sync.changes.begin(), sync.changes.end(),
                      [](const RecordChange<Record>& change) { return !change.after; }));
    tracer.Record(SimTime::FromMicros(0), telemetry::TraceEventKind::kChangelogDelta,
                  "query_cache",
                  StringPrintf("patched kind=%d records=%zu tombstones=%zu",
                               static_cast<int>(table.kind()), sync.changes.size() - tombstones,
                               tombstones));
  }
  return true;
}

template <typename Record>
const MirroredTable<Record>* JournalQueryCache::CurrentTable() {
  MirroredTable<Record>* table = nullptr;
  if constexpr (std::is_same_v<Record, InterfaceRecord>) {
    table = &mirror_.interfaces();
  } else if constexpr (std::is_same_v<Record, GatewayRecord>) {
    table = &mirror_.gateways();
  } else {
    table = &mirror_.subnets();
  }
  return Current(*table) ? table : nullptr;
}

template const MirroredTable<InterfaceRecord>* JournalQueryCache::CurrentTable();
template const MirroredTable<GatewayRecord>* JournalQueryCache::CurrentTable();
template const MirroredTable<SubnetRecord>* JournalQueryCache::CurrentTable();

const JournalQueryCache::Entry& JournalQueryCache::Lookup(const JournalRequest& request) {
  auto& metrics = telemetry::MetricsRegistry::Global();
  // Read-your-writes, as in Current().
  client_->FlushAttachedWriters();
  const std::string key = KeyFor(request);
  auto it = entries_.find(key);
  if (it != entries_.end() && exclusive_ &&
      it->second.generation == client_->last_seen_generation()) {
    ++stats_.hits;
    metrics.GetCounter(telemetry::names::kJournalClientCacheHits)->Increment();
    return it->second;
  }

  JournalRequest conditional = request;
  if (it != entries_.end()) {
    conditional.if_generation = it->second.generation;
  }
  JournalResponse resp = client_->RoundTrip(conditional);
  if (it != entries_.end() && resp.status == ResponseStatus::kNotModified) {
    ++stats_.validations;
    metrics.GetCounter(telemetry::names::kJournalClientCacheHits)->Increment();
    return it->second;
  }

  ++stats_.misses;
  metrics.GetCounter(telemetry::names::kJournalClientCacheMisses)->Increment();
  Entry entry;
  entry.generation = resp.generation;
  entry.interfaces = std::move(resp.interfaces);
  entry.counts = JournalStats{resp.interface_count, resp.gateway_count, resp.subnet_count};
  return entries_.insert_or_assign(it != entries_.end() ? it : entries_.end(), key,
                                   std::move(entry))
      ->second;
}

std::vector<InterfaceRecord> JournalQueryCache::GetInterfaces(const Selector& selector) {
  if (selector.kind == Selector::Kind::kAll) {
    Current(mirror_.interfaces());
    return mirror_.interfaces().records();
  }
  JournalRequest req;
  req.type = RequestType::kGetInterfaces;
  req.selector = selector;
  return Lookup(req).interfaces;
}

std::vector<GatewayRecord> JournalQueryCache::GetGateways() {
  Current(mirror_.gateways());
  return mirror_.gateways().records();
}

std::vector<SubnetRecord> JournalQueryCache::GetSubnets() {
  Current(mirror_.subnets());
  return mirror_.subnets().records();
}

JournalStats JournalQueryCache::GetStats() {
  JournalRequest req;
  req.type = RequestType::kGetStats;
  return Lookup(req).counts;
}

}  // namespace fremont
