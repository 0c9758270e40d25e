// The Journal: Fremont's central repository of discovered network data.
//
// Data structures follow the paper's "Journal Server" section: records live
// in linked lists ordered by time of last modification (most recently
// changed at the tail), interface records are indexed by three AVL trees
// (Ethernet address, IP address, DNS name), and subnet records by a fourth
// AVL tree keyed by subnet address. Gateways are reachable through any of
// their interfaces.
//
// Merge semantics implement the cross-correlation the paper centres on:
// observations of the same (IP, MAC) pair from different modules land on one
// record whose source bitmask grows; a *different* MAC for a known IP opens
// a second record — preserving the evidence of a duplicate address
// assignment or hardware change for the analysis programs; gateway
// observations that share an interface merge into a single gateway record.

#ifndef SRC_JOURNAL_JOURNAL_H_
#define SRC_JOURNAL_JOURNAL_H_

#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/journal/records.h"
#include "src/util/audit.h"
#include "src/util/avl_tree.h"

namespace fremont {

struct JournalStats {
  size_t interface_count = 0;
  size_t gateway_count = 0;
  size_t subnet_count = 0;
};

struct JournalMemoryUsage {
  size_t interface_bytes = 0;  // Records + their index entries.
  size_t gateway_bytes = 0;
  size_t subnet_bytes = 0;
  size_t total_bytes = 0;
  double bytes_per_interface = 0;
  double bytes_per_gateway = 0;
  double bytes_per_subnet = 0;
};

class Journal {
 public:
  Journal() = default;

  struct StoreResult {
    RecordId id = kInvalidRecordId;
    bool created = false;
    bool changed = false;  // Any field changed (includes creation).
  };

  // --- Store / update --------------------------------------------------------

  StoreResult StoreInterface(const InterfaceObservation& obs, DiscoverySource source,
                             SimTime now);
  StoreResult StoreGateway(const GatewayObservation& obs, DiscoverySource source, SimTime now);
  StoreResult StoreSubnet(const SubnetObservation& obs, DiscoverySource source, SimTime now);

  // --- Interface queries ------------------------------------------------------

  const InterfaceRecord* GetInterface(RecordId id) const;
  // May return several records: duplicate address assignments keep one
  // record per (IP, MAC) pair.
  std::vector<InterfaceRecord> FindInterfacesByIp(Ipv4Address ip) const;
  std::vector<InterfaceRecord> FindInterfacesByMac(MacAddress mac) const;
  std::vector<InterfaceRecord> FindInterfacesByName(const std::string& name) const;
  // AVL range scan, e.g. every interface inside a subnet.
  std::vector<InterfaceRecord> FindInterfacesInRange(Ipv4Address lo, Ipv4Address hi) const;
  // All interfaces, least-recently-modified first.
  std::vector<InterfaceRecord> AllInterfaces() const;
  // Interfaces with last_changed >= since, least-recently-modified first.
  // Walks the modification-order list from the tail with early exit, so the
  // cost is O(matches), not O(journal).
  std::vector<InterfaceRecord> FindInterfacesModifiedSince(SimTime since) const;
  bool DeleteInterface(RecordId id);

  // --- Gateway queries ---------------------------------------------------------

  const GatewayRecord* GetGateway(RecordId id) const;
  // Lookup via any member interface address.
  const GatewayRecord* FindGatewayByInterfaceIp(Ipv4Address ip) const;
  std::vector<GatewayRecord> AllGateways() const;
  bool DeleteGateway(RecordId id);

  // --- Subnet queries -----------------------------------------------------------

  const SubnetRecord* GetSubnet(RecordId id) const;
  const SubnetRecord* FindSubnet(const Subnet& subnet) const;
  std::vector<SubnetRecord> AllSubnets() const;
  bool DeleteSubnet(RecordId id);

  // --- Introspection -------------------------------------------------------------

  JournalStats Stats() const;
  // Measured (not estimated from the paper) per-record memory footprint,
  // including index shares — the Table 2 reproduction.
  JournalMemoryUsage MemoryUsage() const;

  // Mutation generation: bumped on every successful store or delete
  // (verify-only stores count — they still touch last_verified, which is
  // observable through EncodeAll). Never reused across LoadFromFile, so a
  // cached query tagged with a generation is valid iff the numbers match.
  uint64_t generation() const { return generation_; }

  // --- Change feed ------------------------------------------------------------
  //
  // Every mutation also lands in a bounded in-memory changelog of
  // (generation, record kind, record id, store|delete) entries, compacted to
  // one live entry per record: re-changing a record moves its entry to the
  // tail with the new generation, and deleting it turns the entry into a
  // tombstone. When the changelog overflows its capacity the oldest entry is
  // evicted and the "horizon" advances to that entry's generation — a delta
  // request from at or past the horizon can be answered exactly; anything
  // older must fall back to a full fetch.

  struct ChangelogEntry {
    uint64_t generation = 0;
    RecordKind kind = RecordKind::kInterface;
    ChangeKind change = ChangeKind::kStore;
    RecordId id = kInvalidRecordId;
    // Provenance: the span that produced this change (0 when the store was
    // untraced). In-memory only — the changelog is never persisted, so these
    // never touch the snapshot format. Compaction keeps the latest writer.
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
  };

  struct Delta {
    // False when `since` predates the changelog horizon (or comes from a
    // different Journal incarnation): the caller must do a full fetch.
    bool servable = false;
    // Changed/deleted records of the requested kind, oldest change first.
    std::vector<ChangelogEntry> entries;
  };

  // Everything of `kind` that changed after generation `since`. A since of
  // generation() returns an empty servable delta.
  Delta CollectChangesSince(RecordKind kind, uint64_t since) const;

  // Bounds the changelog; evicts oldest entries (advancing the horizon) if
  // the new capacity is smaller than the current size.
  void set_changelog_capacity(size_t capacity);

  // Provenance context stamped onto changelog entries produced by subsequent
  // mutations (plain ids — the Journal stays telemetry-agnostic). The server
  // sets this from the request's span context for the duration of a dispatch
  // and clears it after; (0, 0) means "untraced".
  void set_store_context(uint64_t trace_id, uint64_t span_id) {
    store_trace_id_ = trace_id;
    store_span_id_ = span_id;
  }

  // Verifies index ↔ record consistency; test-only.
  bool CheckIndexes() const;

  // --- Persistence ("writes to disk periodically and at termination") -------------

  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);
  void EncodeAll(ByteWriter& writer) const;
  // Loads a whole snapshot, the reader's every byte, or fails and leaves
  // this Journal as it was.
  bool DecodeAll(ByteReader& reader);

 private:
  InterfaceRecord* MutableInterface(RecordId id);
  void IndexInterface(const InterfaceRecord& rec);
  void UnindexInterface(const InterfaceRecord& rec);
  // Re-inserts `id` at its canonical position in the mod-order list: sorted
  // ascending by (last_changed, id). The tie-break makes the order a pure
  // function of record contents, which is what lets a delta-patched client
  // snapshot reproduce AllInterfaces() byte-for-byte. The common case (the
  // record just became the newest) stays O(1).
  void TouchInterface(RecordId id);
  // Merges gateway `from` into `to`, fixing interface and subnet back-links.
  void MergeGateways(RecordId to, RecordId from, SimTime now);
  void AttachGatewayToSubnet(const Subnet& subnet, RecordId gateway_id, DiscoverySource source,
                             SimTime now);

  template <typename Key>
  static void AddToIndex(AvlTree<Key, std::vector<RecordId>>& index, const Key& key, RecordId id);
  template <typename Key>
  static void RemoveFromIndex(AvlTree<Key, std::vector<RecordId>>& index, const Key& key,
                              RecordId id);

  // Queues a changelog entry for the mutation in progress. Entries are held
  // until BumpGeneration() so they are stamped with the generation the
  // mutation publishes — clients only ever observe generations at request
  // boundaries, so every queued change is invisible below that stamp.
  void LogChange(RecordKind kind, ChangeKind change, RecordId id);
  // Publishes the mutation: ++generation_, then flushes queued changes into
  // the changelog stamped with the new generation (compacting + evicting).
  void BumpGeneration();
  static uint64_t ChangelogKey(RecordKind kind, RecordId id) {
    return (static_cast<uint64_t>(kind) << 32) | id;
  }

  std::unordered_map<RecordId, InterfaceRecord> interfaces_;
  std::unordered_map<RecordId, GatewayRecord> gateways_;
  std::unordered_map<RecordId, SubnetRecord> subnets_;

  // Modification-ordered lists (paper: "ordered by time of last
  // modification, so that the most recently changed items are at the end").
  std::list<RecordId> interface_mod_order_;
  std::unordered_map<RecordId, std::list<RecordId>::iterator> interface_mod_pos_;

  // AVL indexes.
  AvlTree<uint64_t, std::vector<RecordId>> by_mac_;
  AvlTree<uint32_t, std::vector<RecordId>> by_ip_;
  AvlTree<std::string, std::vector<RecordId>> by_name_;
  AvlTree<uint32_t, RecordId> subnet_by_network_;

  RecordId next_interface_id_ = 1;
  RecordId next_gateway_id_ = 1;
  RecordId next_subnet_id_ = 1;
  uint64_t generation_ = 0;

  // Change feed (see the public section): compacted bounded changelog,
  // nondecreasing generation front→back, one live entry per (kind, id).
  struct PendingChange {
    RecordKind kind;
    ChangeKind change;
    RecordId id;
    uint64_t trace_id;
    uint64_t span_id;
  };
  std::vector<PendingChange> pending_changes_;
  std::list<ChangelogEntry> changelog_;
  std::unordered_map<uint64_t, std::list<ChangelogEntry>::iterator> changelog_pos_;
  size_t changelog_capacity_ = 8192;
  uint64_t changelog_horizon_ = 0;
  // Current provenance context (see set_store_context).
  uint64_t store_trace_id_ = 0;
  uint64_t store_span_id_ = 0;

#if FREMONT_AUDIT_ENABLED
  // FREMONT_AUDIT=ON: re-verifies the changelog invariants (compaction to
  // one live entry per (kind, id), delete-overrides-store, nondecreasing
  // generations, monotonic horizon) after every mutation; aborts on drift.
  void AuditChangelog();
  uint64_t audited_horizon_ = 0;  // Horizon watermark for the monotonic check.
#endif
};

}  // namespace fremont

#endif  // SRC_JOURNAL_JOURNAL_H_
