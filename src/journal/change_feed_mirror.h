// ChangeFeedMirror: a client-side copy of the Journal's record tables, kept
// current through the change feed (DESIGN.md §11).
//
// Per record kind it owns the cursor, the copy in the server's canonical
// order (interfaces: ascending (last_changed, id); gateways: ascending id;
// subnets: ascending network), and the fallback. Sync() patches in what
// kGetChangedSince reports after the cursor, so the copy stays
// byte-identical to a full fetch. Only a table never synced, or one past
// the changelog horizon (kFullResyncRequired), is refetched whole; on a
// query-cached client the cache answers the refetch from its own copy. A
// read that fails (transport or decode error) changes nothing: the copy and
// its cursor stay as they were, and the next sync retries. Each sync
// reports every changed record and every tombstone next to the mirrored
// copy it replaces.
// Consumers: JournalQueryCache, serve::ServeService, CorrelationState and
// ReplicationPeer.

#ifndef SRC_JOURNAL_CHANGE_FEED_MIRROR_H_
#define SRC_JOURNAL_CHANGE_FEED_MIRROR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/journal/records.h"
#include "src/util/audit.h"

namespace fremont {

class JournalClient;

template <typename Record>
struct RecordChange {
  RecordId id = kInvalidRecordId;
  std::optional<Record> before;  // The mirrored copy; nullopt if not mirrored.
  std::optional<Record> after;   // The Journal's record; nullopt if deleted.
};

template <typename Record>
struct TableSync {
  // Refetched whole: `changes` lists every fetched record, plus every
  // mirrored one the fetch no longer holds.
  bool refetched = false;
  // The read failed: nothing changed, and the cursor did not move.
  bool failed = false;
  std::vector<RecordChange<Record>> changes;  // Deletions first.
};

// One record kind's mirrored table.
template <typename Record>
class MirroredTable {
 public:
  static RecordKind kind();

  // Brings the copy current to the Journal; see the file comment.
  TableSync<Record> Sync(JournalClient& client) { return Sync(client, /*from_wire=*/false); }

  // The mirrored records in canonical order.
  const std::vector<Record>& records() const { return records_; }
  // Generation the copy is current to; nullopt before the first sync.
  std::optional<uint64_t> generation() const { return generation_; }

 private:
  // The query cache syncs its own tables with `from_wire` set: their
  // refetch is the cache's miss path, so it must not ask the cache.
  friend class JournalQueryCache;
  TableSync<Record> Sync(JournalClient& client, bool from_wire);
  // Reads the whole table (from the client's query cache unless
  // `from_wire`) and splices it in.
  TableSync<Record> Refetch(JournalClient& client, bool from_wire);
  TableSync<Record> Patch(std::vector<Record> changed, const std::vector<RecordId>& tombstones);
#if FREMONT_AUDIT_ENABLED
  void Audit(const TableSync<Record>& sync) const;
#endif

  std::vector<Record> records_;
  std::optional<uint64_t> generation_;
};

class ChangeFeedMirror {
 public:
  struct Changes {
    TableSync<InterfaceRecord> interfaces;
    TableSync<GatewayRecord> gateways;
    TableSync<SubnetRecord> subnets;
  };

  // Syncs all three tables, gateways first: every member interface a synced
  // gateway names then exists in the Journal, so the interface sync right
  // after it mirrors the member too.
  Changes Sync(JournalClient& client);

  // Minimum generation over the three tables: the Journal state every one
  // of them is current to at least. 0 while any table has never synced.
  uint64_t generation() const;

  MirroredTable<InterfaceRecord>& interfaces() { return interfaces_; }
  MirroredTable<GatewayRecord>& gateways() { return gateways_; }
  MirroredTable<SubnetRecord>& subnets() { return subnets_; }

 private:
  MirroredTable<InterfaceRecord> interfaces_;
  MirroredTable<GatewayRecord> gateways_;
  MirroredTable<SubnetRecord> subnets_;
};

}  // namespace fremont

#endif  // SRC_JOURNAL_CHANGE_FEED_MIRROR_H_
