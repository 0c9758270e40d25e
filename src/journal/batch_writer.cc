#include "src/journal/batch_writer.h"

#include "src/telemetry/names.h"
#include "src/telemetry/span.h"
#include "src/util/string_util.h"

namespace fremont {

JournalBatchWriter::JournalBatchWriter(JournalClient* client, Clock clock)
    : client_(client), max_batch_(client->store_batch_size()), clock_(std::move(clock)) {
  if (max_batch_ > 0) {
    pending_.reserve(max_batch_);
    client_->AttachWriter(this);
  }
}

JournalBatchWriter::~JournalBatchWriter() {
  if (client_ == nullptr) {
    return;  // Orphaned: the client died first, nothing left to flush into.
  }
  Flush();
  if (max_batch_ > 0) {
    client_->DetachWriter(this);
  }
}

JournalRequest& JournalBatchWriter::Emplace(RequestType type) {
  JournalRequest& item = count_ < pending_.size() ? pending_[count_] : pending_.emplace_back();
  ++count_;
  // A reused slot keeps the fields of its previous occupant: reset everything
  // the caller is not about to fill so nothing stale leaks onto the wire. The
  // observation optional matching `type` stays engaged — assignment into it
  // reuses its string capacity, which is the point of the slot pool.
  item.type = type;
  item.source = DiscoverySource::kNone;
  item.delete_id = kInvalidRecordId;
  if (type != RequestType::kStoreInterface) {
    item.interface_obs.reset();
  }
  if (type != RequestType::kStoreGateway) {
    item.gateway_obs.reset();
  }
  if (type != RequestType::kStoreSubnet) {
    item.subnet_obs.reset();
  }
  if (clock_) {
    item.obs_time = clock_();
  } else {
    item.obs_time.reset();
  }
  return item;
}

void JournalBatchWriter::Commit() {
  if (max_batch_ == 0) {
    // Batching disabled: behave exactly like the v1 per-record client calls.
    JournalRequest& item = pending_[--count_];
    JournalClient::StoreResult result;
    switch (item.type) {
      case RequestType::kStoreInterface:
        result = client_->StoreInterface(*item.interface_obs, item.source);
        break;
      case RequestType::kStoreGateway:
        result = client_->StoreGateway(*item.gateway_obs, item.source);
        break;
      case RequestType::kStoreSubnet:
        result = client_->StoreSubnet(*item.subnet_obs, item.source);
        break;
      case RequestType::kDeleteInterface:
        result.ok = client_->DeleteInterface(item.delete_id);
        break;
      case RequestType::kDeleteGateway:
        result.ok = client_->DeleteGateway(item.delete_id);
        break;
      case RequestType::kDeleteSubnet:
        result.ok = client_->DeleteSubnet(item.delete_id);
        break;
      case RequestType::kGetInterfaces:
      case RequestType::kGetGateways:
      case RequestType::kGetSubnets:
      case RequestType::kGetStats:
      case RequestType::kBatch:
      case RequestType::kGetChangedSince:
      case RequestType::kSubscribe:
      case RequestType::kUnsubscribe:
      case RequestType::kPushUpdate:
        break;  // Emplace() only queues store/delete items.
    }
    ++totals_.records_written;
    if (result.created || result.changed) {
      ++totals_.new_info;
    }
    if (!result.ok) {
      ++totals_.failed;
    }
    return;
  }
  if (count_ >= max_batch_) {
    Flush();
  }
}

void JournalBatchWriter::Flush() {
  if (count_ == 0) {
    return;
  }
  const size_t count = count_;
  count_ = 0;  // Before the round trip: the slots are no longer "queued".
  // The flush span parents on whatever is current (a module-run span when a
  // probe triggered the flush) and is itself current across StoreBatch, so
  // the client stamps it into the batch frame's wire context.
  const SimTime flush_start = clock_ ? clock_() : SimTime();
  telemetry::Span span(telemetry::names::kSpanJournalFlush, flush_start);
  auto results = client_->StoreBatch(pending_.data(), count);
  span.End(telemetry::TraceEventKind::kJournalRpc, clock_ ? clock_() : flush_start,
           StringPrintf("batch_flush n=%zu", count));
  ++totals_.flushes;
  for (const auto& result : results) {
    ++totals_.records_written;
    if (result.created || result.changed) {
      ++totals_.new_info;
    }
    if (result.status != ResponseStatus::kOk) {
      ++totals_.failed;
    }
  }
}

void JournalBatchWriter::StoreInterface(const InterfaceObservation& obs, DiscoverySource source) {
  JournalRequest& item = Emplace(RequestType::kStoreInterface);
  item.source = source;
  item.interface_obs = obs;
  Commit();
}

void JournalBatchWriter::StoreGateway(const GatewayObservation& obs, DiscoverySource source) {
  JournalRequest& item = Emplace(RequestType::kStoreGateway);
  item.source = source;
  item.gateway_obs = obs;
  Commit();
}

void JournalBatchWriter::StoreSubnet(const SubnetObservation& obs, DiscoverySource source) {
  JournalRequest& item = Emplace(RequestType::kStoreSubnet);
  item.source = source;
  item.subnet_obs = obs;
  Commit();
}

void JournalBatchWriter::DeleteInterface(RecordId id) {
  Emplace(RequestType::kDeleteInterface).delete_id = id;
  Commit();
}

void JournalBatchWriter::DeleteGateway(RecordId id) {
  Emplace(RequestType::kDeleteGateway).delete_id = id;
  Commit();
}

void JournalBatchWriter::DeleteSubnet(RecordId id) {
  Emplace(RequestType::kDeleteSubnet).delete_id = id;
  Commit();
}

}  // namespace fremont
