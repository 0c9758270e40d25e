#include "src/journal/change_feed_mirror.h"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/journal/client.h"
#include "src/util/string_util.h"

namespace fremont {

namespace {

// Per table: the kind asked of the feed, the whole-table read, where a reply
// carries the records, and the canonical order the server returns.
template <typename Record>
struct Table;

template <>
struct Table<InterfaceRecord> {
  static constexpr RecordKind kKind = RecordKind::kInterface;
  static constexpr RequestType kFetch = RequestType::kGetInterfaces;
  static auto& Of(auto& reply) { return reply.interfaces; }
  // AllInterfaces(): the Journal's mod-order.
  static bool Less(const InterfaceRecord& a, const InterfaceRecord& b) {
    return std::tie(a.ts.last_changed, a.id) < std::tie(b.ts.last_changed, b.id);
  }
};

template <>
struct Table<GatewayRecord> {
  static constexpr RecordKind kKind = RecordKind::kGateway;
  static constexpr RequestType kFetch = RequestType::kGetGateways;
  static auto& Of(auto& reply) { return reply.gateways; }
  static bool Less(const GatewayRecord& a, const GatewayRecord& b) { return a.id < b.id; }
};

template <>
struct Table<SubnetRecord> {
  static constexpr RecordKind kKind = RecordKind::kSubnet;
  static constexpr RequestType kFetch = RequestType::kGetSubnets;
  static auto& Of(auto& reply) { return reply.subnets; }
  // AllSubnets(): the in-order walk of the network-address AVL tree.
  static bool Less(const SubnetRecord& a, const SubnetRecord& b) {
    return a.subnet.network().value() < b.subnet.network().value();
  }
};

}  // namespace

template <typename Record>
RecordKind MirroredTable<Record>::kind() {
  return Table<Record>::kKind;
}

template <typename Record>
TableSync<Record> MirroredTable<Record>::Sync(JournalClient& client) {
  JournalClient::DeltaResult delta;
  if (generation_.has_value()) {
    delta = client.GetChangedSince(kind(), *generation_);
  }
  TableSync<Record> sync;
  if (delta.ok()) {
    sync = Patch(std::move(Table<Record>::Of(delta)), delta.tombstones);
    generation_ = delta.generation;
  } else if (!generation_.has_value() || delta.status == ResponseStatus::kFullResyncRequired) {
    sync = Refetch(client);
  } else {
    sync.failed = true;
  }
#if FREMONT_AUDIT_ENABLED
  Audit(sync);
#endif
  return sync;
}

template <typename Record>
TableSync<Record> MirroredTable<Record>::Refetch(JournalClient& client) {
  TableSync<Record> sync;
  sync.failed = true;  // Until the read succeeds.
  JournalRequest request;
  request.type = Table<Record>::kFetch;
  JournalResponse resp = client.RoundTrip(request);
  // kNotFound answers a read of an empty table.
  if (resp.status != ResponseStatus::kOk && resp.status != ResponseStatus::kNotFound) {
    return sync;
  }
  std::vector<Record> fetched = std::move(Table<Record>::Of(resp));
  // Splice the fetch in like a delta whose tombstones are the mirrored
  // records it no longer holds.
  std::vector<RecordId> gone;
  if (!records_.empty()) {
    std::unordered_set<RecordId> fetched_ids;
    for (const Record& rec : fetched) {
      fetched_ids.insert(rec.id);
    }
    for (const Record& rec : records_) {
      if (!fetched_ids.contains(rec.id)) {
        gone.push_back(rec.id);
      }
    }
  }
  sync = Patch(std::move(fetched), gone);
  sync.refetched = true;
  generation_ = resp.generation;
  return sync;
}

template <typename Record>
TableSync<Record> MirroredTable<Record>::Patch(std::vector<Record> changed,
                                               const std::vector<RecordId>& tombstones) {
  TableSync<Record> sync;
  sync.changes.reserve(tombstones.size() + changed.size());
  // Mirrored records leaving their place, keyed to the change taking them.
  std::unordered_map<RecordId, size_t> leaving;
  for (RecordId id : tombstones) {
    leaving.emplace(id, sync.changes.size());
    sync.changes.push_back({id, std::nullopt, std::nullopt});
  }
  std::vector<Record> arriving;
  for (Record& rec : changed) {
    RecordChange<Record>& change = sync.changes.emplace_back();
    change.id = rec.id;
    // Same canonical key (a verify-only store; any gateway or subnet
    // change): overwrite in place.
    auto it = std::lower_bound(records_.begin(), records_.end(), rec, Table<Record>::Less);
    if (it != records_.end() && it->id == rec.id) {
      change.before = std::exchange(*it, rec);
    } else {
      if (!records_.empty()) {  // Else it cannot have been mirrored.
        leaving.emplace(rec.id, sync.changes.size() - 1);
      }
      arriving.push_back(rec);
    }
    change.after = std::move(rec);
  }
  if (!leaving.empty()) {
    size_t kept = 0;
    for (size_t i = 0; i < records_.size(); ++i) {
      if (auto it = leaving.find(records_[i].id); it != leaving.end()) {
        sync.changes[it->second].before = std::move(records_[i]);
      } else if (kept++ != i) {
        records_[kept - 1] = std::move(records_[i]);
      }
    }
    records_.resize(kept);
  }
  std::sort(arriving.begin(), arriving.end(), Table<Record>::Less);
  const auto middle = static_cast<ptrdiff_t>(records_.size());
  records_.insert(records_.end(), std::make_move_iterator(arriving.begin()),
                  std::make_move_iterator(arriving.end()));
  std::inplace_merge(records_.begin(), records_.begin() + middle, records_.end(),
                     Table<Record>::Less);
  return sync;
}

#if FREMONT_AUDIT_ENABLED
// FREMONT_AUDIT=ON: a synced table must hold its canonical order (strictly —
// ids are unique) and no deleted record, or it is no longer byte-identical
// to a fresh full fetch.
template <typename Record>
void MirroredTable<Record>::Audit(const TableSync<Record>& sync) const {
  const int family = static_cast<int>(kind());
  for (size_t i = 1; i < records_.size(); ++i) {
    FREMONT_AUDIT_CHECK(Table<Record>::Less(records_[i - 1], records_[i]),
                        StringPrintf("kind %d mirror out of canonical order at %zu (ids %u, %u)",
                                     family, i, records_[i - 1].id, records_[i].id));
  }
  for (const RecordChange<Record>& change : sync.changes) {
    FREMONT_AUDIT_CHECK(change.after.has_value() ||
                            std::none_of(records_.begin(), records_.end(),
                                         [&](const Record& rec) { return rec.id == change.id; }),
                        StringPrintf("kind %d mirror still holds deleted id %u", family,
                                     change.id));
  }
}
#endif  // FREMONT_AUDIT_ENABLED

template class MirroredTable<InterfaceRecord>;
template class MirroredTable<GatewayRecord>;
template class MirroredTable<SubnetRecord>;

ChangeFeedMirror::Changes ChangeFeedMirror::Sync(JournalClient& client) {
  Changes changes;
  changes.gateways = gateways_.Sync(client);
  changes.interfaces = interfaces_.Sync(client);
  changes.subnets = subnets_.Sync(client);
  return changes;
}

uint64_t ChangeFeedMirror::generation() const {
  return std::min({interfaces_.generation().value_or(0), gateways_.generation().value_or(0),
                   subnets_.generation().value_or(0)});
}

}  // namespace fremont
