// JournalQueryCache: generation-validated read caching for JournalClient.
//
// The Journal bumps a mutation generation on every successful store/delete
// and stamps it on every response. The cache answers two kinds of read:
//
//  - Whole-table reads (GetInterfaces(kAll), GetGateways, GetSubnets) come
//    from a ChangeFeedMirror (change_feed_mirror.h): a stale table is
//    patched from a kGetChangedSince delta into a copy byte-identical to a
//    fresh full fetch, and refetched whole only on first use or past the
//    changelog horizon (a "full resync"). A failed read leaves the table as
//    it was. Every other mirror on the client refetches from these tables
//    (CurrentTable()); the cache's own refetch goes to the wire.
//  - Narrower selectors and GetStats are keyed by their encoded wire form
//    and remembered with the generation they were fetched at; a stale entry
//    is revalidated with a conditional get (`if_generation`), which the
//    server answers kNotModified with no payload when nothing mutated.
//
// Exclusive mode (every mutation flows through this client): if a cached
// result's generation equals the last generation this client saw, the
// Journal cannot have changed — answer from memory with zero round trips.

#ifndef SRC_JOURNAL_QUERY_CACHE_H_
#define SRC_JOURNAL_QUERY_CACHE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/journal/change_feed_mirror.h"
#include "src/journal/journal.h"
#include "src/journal/protocol.h"

namespace fremont {

class JournalClient;

class JournalQueryCache {
 public:
  struct CacheStats {
    uint64_t hits = 0;         // Served from memory, zero round trips.
    uint64_t validations = 0;  // Conditional get answered kNotModified.
    uint64_t patches = 0;      // Stale table repaired from a delta.
    uint64_t resyncs = 0;      // Delta unavailable (past horizon) → full fetch.
    uint64_t misses = 0;       // Full fetch over the wire.
  };

  JournalQueryCache(JournalClient* client, bool exclusive)
      : client_(client), exclusive_(exclusive) {}

  std::vector<InterfaceRecord> GetInterfaces(const Selector& selector);
  std::vector<GatewayRecord> GetGateways();
  std::vector<SubnetRecord> GetSubnets();
  JournalStats GetStats();

  // The cache's copy of one table, brought current; null if the read
  // failed. Another mirror's refetch on this client copies it.
  template <typename Record>
  const MirroredTable<Record>* CurrentTable();

  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t generation = 0;
    std::vector<InterfaceRecord> interfaces;  // Selector queries.
    JournalStats counts;                      // GetStats.
  };

  // Runs `request` through the conditional-get cache; returns the live entry.
  const Entry& Lookup(const JournalRequest& request);
  // Brings one mirrored table current; false if the read failed.
  template <typename Record>
  bool Current(MirroredTable<Record>& table);

  JournalClient* client_;
  bool exclusive_;
  ChangeFeedMirror mirror_;
  std::unordered_map<std::string, Entry> entries_;
  CacheStats stats_;
};

}  // namespace fremont

#endif  // SRC_JOURNAL_QUERY_CACHE_H_
