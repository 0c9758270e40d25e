// Journal replication: sharing discoveries between Fremont sites.
//
// The paper: "the system can be replicated at multiple sites, exploring
// different networks, and sharing information among the replicated
// components" — and its future work extends this with "caching data and
// supporting predicate-based queries to limit exchanged data to the parts
// that are needed".
//
// Replication is pull-based and incremental: the puller keeps a
// ChangeFeedMirror of the peer, so each pull costs one kGetChangedSince
// round trip per record kind, and replays into its own Journal only what is
// new to the mirror or carries a changed observation. Verify-only stores
// reach the feed but do not travel. Record ids are local to each Journal, so
// the replay goes through the normal merge logic — cross-correlation applies
// across sites exactly as it does across modules. Gateway members resolve to
// addresses through the mirrored interfaces, and an interface the peer
// deletes is deleted here too (the local record with the same IP and MAC),
// unless the peer still holds a live record with that IP and MAC: then it
// re-learned the address, and the delete would only bounce between two
// sites that pull each other. A failed pull replays nothing and leaves the
// mirror as it was. Gateway and subnet deletions are not replayed: nothing deletes either kind
// outright, and the peer's gateway tombstones come from merges that the
// local StoreGateway redoes.

#ifndef SRC_JOURNAL_REPLICATE_H_
#define SRC_JOURNAL_REPLICATE_H_

#include "src/journal/change_feed_mirror.h"
#include "src/journal/client.h"

namespace fremont {

struct ReplicationStats {
  int interfaces_pulled = 0;
  int gateways_pulled = 0;
  int subnets_pulled = 0;
  int new_or_changed = 0;  // Stores that actually added information here.
};

// Incremental pull state for one peer.
class ReplicationPeer {
 public:
  explicit ReplicationPeer(JournalClient* remote) : remote_(remote) {}

  // Pulls everything the peer changed since the last Pull (everything, the
  // first time) into `local`.
  ReplicationStats Pull(JournalClient& local);

 private:
  JournalClient* remote_;
  ChangeFeedMirror mirror_;  // The peer's records as of the last pull.
};

}  // namespace fremont

#endif  // SRC_JOURNAL_REPLICATE_H_
