// Cross-correlation over the Journal.
//
// "The fact that the same Ethernet address is observed by two ARP modules
// running on different subnets is not significant until that information is
// written into the Journal. Only then, because of the common storage, can
// that gateway be discovered." This pass performs that inference and
// produces directives for further discovery:
//
//   * One MAC with IP addresses on two or more *different* subnets → the
//     interfaces belong to one gateway; a GatewayObservation merges them.
//   * One MAC with several IPs on the *same* subnet → a reconfigured host or
//     a proxy-ARP device; reported, not merged.
//   * Subnets with no known gateway → traceroute targets.
//   * Interfaces with no recorded mask → subnet-mask module targets.

#ifndef SRC_MANAGER_CORRELATE_H_
#define SRC_MANAGER_CORRELATE_H_

#include <unordered_map>
#include <vector>

#include "src/journal/change_feed_mirror.h"
#include "src/journal/client.h"
#include "src/util/audit.h"

namespace fremont {

struct CorrelationReport {
  int gateways_inferred_from_mac = 0;
  int same_subnet_multi_ip_macs = 0;  // Reconfig / proxy-ARP candidates.
  std::vector<Subnet> subnets_without_gateway;
  std::vector<Ipv4Address> interfaces_without_mask;
};

// Reads the Journal, writes inferred gateways back, returns directives.
// `assumed_prefix` is used when an interface has no recorded mask yet.
// `now` stamps the telemetry trace event for this pass; callers inside the
// simulation should pass the current sim time.
CorrelationReport Correlate(JournalClient& journal, int assumed_prefix = 24,
                            SimTime now = SimTime::Epoch());

// Incremental correlation over the Journal change feed.
//
// Holds the MAC→interface grouping between passes, so a steady-state pass
// costs O(changed records), not O(journal): Update() syncs the interface and
// subnet tables of a ChangeFeedMirror, re-evaluates only the MAC groups a
// changed record belongs to, and writes gateway observations only for
// groups whose membership actually moved. The groups hold keys into the
// mirror, not copies of the records. The mirror's first sync (and any sync
// past the server's changelog horizon) is a full refetch — the same reads
// the full-pass Correlate() does. Each table keeps its own cursor, so a
// store landing between the two reads reaches the next pass.
//
// Equivalence contract (tested): after any interleaving of stores and
// deletes, Update() returns the same report as a full-pass Correlate() over
// the same records, with the directive lists in the full pass's own order:
// subnets_without_gateway ascending by network (AllSubnets order) and
// interfaces_without_mask ascending by (last_changed, id) (mod-order).
class CorrelationState {
 public:
  explicit CorrelationState(int assumed_prefix = 24) : assumed_prefix_(assumed_prefix) {}
  CorrelationState(const CorrelationState&) = delete;
  CorrelationState& operator=(const CorrelationState&) = delete;

  // One incremental pass over a mirror this state keeps; safe to call any
  // time. `now` stamps telemetry.
  CorrelationReport Update(JournalClient& journal, SimTime now = SimTime::Epoch());
  // The same pass over a mirror the caller keeps and reads too (ServeService
  // renders its views from it). Every pass must get the same mirror, and
  // only this state may sync its interface and subnet tables; the gateway
  // table is the caller's to sync.
  CorrelationReport Update(JournalClient& journal, ChangeFeedMirror& mirror,
                           SimTime now = SimTime::Epoch());

  int full_rebuilds() const { return full_rebuilds_; }
  int incremental_passes() const { return incremental_passes_; }

 private:
  // A MAC group member: its interface's canonical (mod-order) key, which
  // finds the record in the mirror by binary search and, sorted, lists the
  // members in the order the full pass reads them.
  struct MemberKey {
    SimTime last_changed;
    RecordId id = kInvalidRecordId;
    auto operator<=>(const MemberKey&) const = default;
  };
  // The mirrored interface `key` names; null only if the groups drifted
  // from the mirror (the audit's job to catch).
  const InterfaceRecord* Find(const MemberKey& key) const;
  // Group classification: 0 = not a group (<2 members), 1 = gateway
  // (≥2 distinct subnets), 2 = same-subnet multi-IP.
  int ClassifyGroup(const std::vector<MemberKey>& members) const;
  // Folds one interface sync into the MAC groups; collects affected MACs.
  void Apply(const TableSync<InterfaceRecord>& sync, std::vector<uint64_t>& dirty);
  // Re-evaluates `dirty` groups; stores a gateway observation for each dirty
  // gateway-classified group through `writer`, or leaves it in unwritten_
  // for the next pass when `writer` is null.
  void ReevaluateGroups(std::vector<uint64_t>& dirty, JournalBatchWriter* writer);

  int assumed_prefix_;
  // The interface and subnet tables as of the last sync; every record
  // correlation reads comes from here. Null before the first pass, then
  // own_mirror_ or the caller's.
  ChangeFeedMirror* mirror_ = nullptr;
  ChangeFeedMirror own_mirror_;
  std::unordered_map<uint64_t, std::vector<MemberKey>> by_mac_;
  // Last classification per MAC (only 1 and 2 are stored), backing the
  // aggregate counters below across incremental transitions.
  std::unordered_map<uint64_t, int> group_class_;
  int gateway_groups_ = 0;
  int same_subnet_groups_ = 0;
  // Gateway groups the echo sync classified without a writer (a foreign
  // store landed mid-pass); the next pass stores their observations.
  std::vector<uint64_t> unwritten_;
  int full_rebuilds_ = 0;
  int incremental_passes_ = 0;

#if FREMONT_AUDIT_ENABLED
  // FREMONT_AUDIT=ON: dirty-set soundness. After Update(), every MAC group's
  // stored classification must equal a fresh ClassifyGroup() of its members
  // — if they differ, the dirty-set logic missed a group that changed.
  void AuditState() const;
#endif
};

}  // namespace fremont

#endif  // SRC_MANAGER_CORRELATE_H_
