#include "src/manager/correlate.h"

#include <algorithm>
#include <utility>

#include "src/journal/batch_writer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace.h"
#include "src/util/string_util.h"

namespace fremont {

namespace {
// Sorted-vector dedup: how many distinct values `nets` holds. Leaves the
// vector sorted; no node allocations.
size_t CountDistinct(std::vector<uint32_t>& nets) {
  std::sort(nets.begin(), nets.end());
  return static_cast<size_t>(std::distance(nets.begin(), std::unique(nets.begin(), nets.end())));
}

// The interface's recorded subnet, or its assumed-prefix subnet.
Subnet SubnetOf(const InterfaceRecord& rec, int assumed_prefix) {
  return Subnet(rec.ip, rec.mask.value_or(SubnetMask::FromPrefixLength(assumed_prefix)));
}
}  // namespace

CorrelationReport Correlate(JournalClient& journal, int assumed_prefix, SimTime now) {
  // Current for the whole pass: the reads below and the batched gateway
  // stores all carry this span's context (the stores via the flush span it
  // parents), so the pass is one traceable unit.
  telemetry::Span span(telemetry::names::kSpanCorrelate, now);
  CorrelationReport report;
  const auto interfaces = journal.GetInterfaces();
  const auto subnets = journal.GetSubnets();

  // Group interfaces by MAC. Hash map + reserve keeps this allocation-lean;
  // the sorted key pass below preserves the ascending-MAC iteration order the
  // tree map used to provide (it determines gateway store order).
  std::unordered_map<uint64_t, std::vector<const InterfaceRecord*>> by_mac;
  by_mac.reserve(interfaces.size());
  std::vector<uint64_t> macs;
  macs.reserve(interfaces.size());
  for (const auto& rec : interfaces) {
    if (rec.mac.has_value()) {
      auto [it, inserted] = by_mac.try_emplace(rec.mac->ToU64());
      if (inserted) {
        macs.push_back(rec.mac->ToU64());
      }
      it->second.push_back(&rec);
    }
    if (!rec.mask.has_value()) {
      report.interfaces_without_mask.push_back(rec.ip);
    }
  }
  std::sort(macs.begin(), macs.end());

  // Inferred gateways are batched; sim time does not advance inside this
  // pass, so server-side stamping at flush matches per-record stamping.
  JournalBatchWriter writer(&journal);
  std::vector<uint32_t> distinct_subnets;  // Scratch, reused across groups.
  for (uint64_t mac : macs) {
    const auto& recs = by_mac.find(mac)->second;
    if (recs.size() < 2) {
      continue;
    }
    distinct_subnets.clear();
    for (const auto* rec : recs) {
      distinct_subnets.push_back(SubnetOf(*rec, assumed_prefix).network().value());
    }
    if (CountDistinct(distinct_subnets) >= 2) {
      // The same physical box answers on multiple subnets: a gateway.
      GatewayObservation gw;
      for (const auto* rec : recs) {
        gw.interface_ips.push_back(rec->ip);
        gw.connected_subnets.push_back(SubnetOf(*rec, assumed_prefix));
        if (gw.name.empty() && !rec->dns_name.empty()) {
          gw.name = rec->dns_name;
        }
      }
      writer.StoreGateway(gw, DiscoverySource::kManual);
      ++report.gateways_inferred_from_mac;
    } else {
      ++report.same_subnet_multi_ip_macs;
    }
  }
  writer.Flush();

  for (const auto& rec : subnets) {
    if (rec.gateway_ids.empty()) {
      report.subnets_without_gateway.push_back(rec.subnet);
    }
  }

  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.GetCounter(telemetry::names::kCorrelatePasses)->Increment();
  metrics.GetCounter(telemetry::names::kCorrelateGatewaysInferred)->Add(report.gateways_inferred_from_mac);
  span.End(telemetry::TraceEventKind::kCorrelationPass, now,
           StringPrintf("gateways_inferred=%d orphan_subnets=%d",
                        report.gateways_inferred_from_mac,
                        static_cast<int>(report.subnets_without_gateway.size())));
  return report;
}

// --- CorrelationState ----------------------------------------------------------

const InterfaceRecord* CorrelationState::Find(const MemberKey& key) const {
  const std::vector<InterfaceRecord>& records = mirror_->interfaces().records();
  auto it = std::lower_bound(records.begin(), records.end(), key,
                             [](const InterfaceRecord& rec, const MemberKey& k) {
                               return MemberKey{rec.ts.last_changed, rec.id} < k;
                             });
  return it != records.end() && it->id == key.id ? &*it : nullptr;
}

int CorrelationState::ClassifyGroup(const std::vector<MemberKey>& members) const {
  if (members.size() < 2) {
    return 0;
  }
  std::vector<uint32_t> nets;
  nets.reserve(members.size());
  for (const MemberKey& key : members) {
    nets.push_back(SubnetOf(*Find(key), assumed_prefix_).network().value());
  }
  return CountDistinct(nets) >= 2 ? 1 : 2;
}

void CorrelationState::Apply(const TableSync<InterfaceRecord>& sync,
                             std::vector<uint64_t>& dirty) {
  for (const auto& [id, before, after] : sync.changes) {
    if (before.has_value() && before->mac.has_value()) {
      const uint64_t mac = before->mac->ToU64();
      auto git = by_mac_.find(mac);
      std::erase(git->second, MemberKey{before->ts.last_changed, id});
      if (git->second.empty()) {
        by_mac_.erase(git);
      }
      if (!after.has_value() || after->mac != before->mac) {
        dirty.push_back(mac);
      }
    }
    if (after.has_value() && after->mac.has_value()) {
      const uint64_t mac = after->mac->ToU64();
      by_mac_[mac].push_back(MemberKey{after->ts.last_changed, id});
      // A verify-only store (or a gateway back-link touch) changes none of
      // the fields grouping depends on; skip the group re-evaluation for those.
      if (!before.has_value() || before->mac != after->mac ||
          SubnetOf(*before, assumed_prefix_).network() !=
              SubnetOf(*after, assumed_prefix_).network() ||
          before->dns_name != after->dns_name) {
        dirty.push_back(mac);
      }
    }
  }
}

void CorrelationState::ReevaluateGroups(std::vector<uint64_t>& dirty,
                                        JournalBatchWriter* writer) {
  // Ascending-MAC order keeps store order identical to the full pass.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::vector<MemberKey> members;  // Scratch, reused across groups.
  for (uint64_t mac : dirty) {
    auto git = by_mac_.find(mac);
    const int new_cls = git == by_mac_.end() ? 0 : ClassifyGroup(git->second);
    auto cit = group_class_.find(mac);
    const int old_cls = cit == group_class_.end() ? 0 : cit->second;
    if (old_cls == new_cls && new_cls == 0) {
      continue;
    }
    if (old_cls == 1) {
      --gateway_groups_;
    } else if (old_cls == 2) {
      --same_subnet_groups_;
    }
    if (new_cls == 1) {
      ++gateway_groups_;
    } else if (new_cls == 2) {
      ++same_subnet_groups_;
    }
    if (new_cls == 0) {
      if (cit != group_class_.end()) {
        group_class_.erase(cit);
      }
    } else {
      group_class_[mac] = new_cls;
    }
    if (new_cls == 1 && writer == nullptr) {
      unwritten_.push_back(mac);
    } else if (new_cls == 1) {
      // Members in the Journal's mod-order — ascending (last_changed, id) —
      // so the observation (member order, name pick) is byte-for-byte what
      // the full pass would have written this pass.
      members = git->second;
      std::sort(members.begin(), members.end());
      GatewayObservation gw;
      for (const MemberKey& key : members) {
        const InterfaceRecord& rec = *Find(key);
        gw.interface_ips.push_back(rec.ip);
        gw.connected_subnets.push_back(SubnetOf(rec, assumed_prefix_));
        if (gw.name.empty() && !rec.dns_name.empty()) {
          gw.name = rec.dns_name;
        }
      }
      writer->StoreGateway(gw, DiscoverySource::kManual);
    }
  }
}

#if FREMONT_AUDIT_ENABLED
void CorrelationState::AuditState() const {
  // Membership soundness: the MAC grouping must be exactly the mirrored
  // interfaces that have a MAC, each in its own group once.
  size_t grouped = 0;
  for (const auto& [mac, members] : by_mac_) {
    FREMONT_AUDIT_CHECK(!members.empty(),
                        StringPrintf("empty group for mac=%llx",
                                     static_cast<unsigned long long>(mac)));
    grouped += members.size();
    for (const MemberKey& key : members) {
      const InterfaceRecord* rec = Find(key);
      FREMONT_AUDIT_CHECK(rec != nullptr && rec->ts.last_changed == key.last_changed,
                          StringPrintf("group mac=%llx holds unmirrored interface id=%u",
                                       static_cast<unsigned long long>(mac), key.id));
      FREMONT_AUDIT_CHECK(rec->mac.has_value() && rec->mac->ToU64() == mac,
                          StringPrintf("interface id=%u filed under mac=%llx it does not hold",
                                       key.id, static_cast<unsigned long long>(mac)));
      FREMONT_AUDIT_CHECK(std::count(members.begin(), members.end(), key) == 1,
                          StringPrintf("interface id=%u appears twice in group mac=%llx", key.id,
                                       static_cast<unsigned long long>(mac)));
    }
  }
  const std::vector<InterfaceRecord>& records = mirror_->interfaces().records();
  const auto with_mac = static_cast<size_t>(
      std::count_if(records.begin(), records.end(),
                    [](const InterfaceRecord& rec) { return rec.mac.has_value(); }));
  FREMONT_AUDIT_CHECK(grouped == with_mac,
                      StringPrintf("%zu grouped members vs %zu interfaces with a MAC", grouped,
                                   with_mac));

  // Dirty-set soundness: stored classifications must match a from-scratch
  // re-classification of every group, and the aggregate counters must match.
  int gateway_groups = 0;
  int same_subnet_groups = 0;
  for (const auto& [mac, members] : by_mac_) {
    const int fresh = ClassifyGroup(members);
    auto cit = group_class_.find(mac);
    const int stored = cit == group_class_.end() ? 0 : cit->second;
    FREMONT_AUDIT_CHECK(fresh == stored,
                        StringPrintf("group mac=%llx classifies as %d but is stored as %d",
                                     static_cast<unsigned long long>(mac), fresh, stored));
    if (fresh == 1) {
      ++gateway_groups;
    } else if (fresh == 2) {
      ++same_subnet_groups;
    }
  }
  for (const auto& [mac, cls] : group_class_) {
    FREMONT_AUDIT_CHECK(by_mac_.contains(mac),
                        StringPrintf("stale classification %d for vanished group mac=%llx", cls,
                                     static_cast<unsigned long long>(mac)));
  }
  FREMONT_AUDIT_CHECK(gateway_groups_ == gateway_groups,
                      StringPrintf("gateway_groups_=%d but %d groups classify as gateways",
                                   gateway_groups_, gateway_groups));
  FREMONT_AUDIT_CHECK(same_subnet_groups_ == same_subnet_groups,
                      StringPrintf("same_subnet_groups_=%d but %d groups classify as same-subnet",
                                   same_subnet_groups_, same_subnet_groups));
}
#endif  // FREMONT_AUDIT_ENABLED

CorrelationReport CorrelationState::Update(JournalClient& journal, SimTime now) {
  return Update(journal, own_mirror_, now);
}

CorrelationReport CorrelationState::Update(JournalClient& journal, ChangeFeedMirror& mirror,
                                           SimTime now) {
  FREMONT_AUDIT_CHECK(mirror_ == nullptr || mirror_ == &mirror,
                      "CorrelationState passed a different mirror than its last pass");
  mirror_ = &mirror;
  // Opened before the delta reads so they carry this span over the wire —
  // that is what lets the server link each producer's trace to this pass.
  telemetry::Span span(telemetry::names::kSpanCorrelate, now);
  auto& metrics = telemetry::MetricsRegistry::Global();

  // Interfaces, then subnets, each from its own cursor: a store landing
  // between the two reads reaches the next pass.
  const size_t held = mirror_->interfaces().records().size();
  const TableSync<InterfaceRecord> interfaces = mirror_->interfaces().Sync(journal);
  const bool subnets_refetched = mirror_->subnets().Sync(journal).refetched;
  std::vector<uint64_t> dirty = std::exchange(unwritten_, {});
  Apply(interfaces, dirty);
  if (interfaces.refetched || subnets_refetched) {
    ++full_rebuilds_;
    metrics.GetCounter(telemetry::names::kCorrelateFullRebuilds)->Increment();
  } else {
    ++incremental_passes_;
    metrics.GetCounter(telemetry::names::kCorrelateIncrementalPasses)->Increment();
    const int64_t skipped =
        static_cast<int64_t>(held) - static_cast<int64_t>(interfaces.changes.size());
    if (skipped > 0) {
      metrics.GetCounter(telemetry::names::kCorrelateRecordsSkipped)->Add(skipped);
    }
  }

  // Re-evaluate the groups touched by this pass; store observations for the
  // gateway-classified ones (a first sync marks every group dirty, so it
  // stores exactly what a full pass would).
  JournalBatchWriter writer(&journal);
  ReevaluateGroups(dirty, &writer);
  writer.Flush();

  // The report reflects the Journal as read at the start of the pass —
  // exactly like the full pass, which fetches before it stores — and the
  // mirror holds both tables in the full pass's own order.
  CorrelationReport report;
  report.gateways_inferred_from_mac = gateway_groups_;
  report.same_subnet_multi_ip_macs = same_subnet_groups_;
  for (const SubnetRecord& rec : mirror_->subnets().records()) {
    if (rec.gateway_ids.empty()) {
      report.subnets_without_gateway.push_back(rec.subnet);
    }
  }
  for (const InterfaceRecord& rec : mirror_->interfaces().records()) {
    if (!rec.mask.has_value()) {
      report.interfaces_without_mask.push_back(rec.ip);
    }
  }

  // Absorb our own gateway writes (verification stamps, gateway back-links,
  // subnet coverage) so the next pass's delta is only real foreign change.
  // Own writes never alter MAC grouping, but a foreign store that landed
  // after this pass's reads can: re-evaluate without a writer, so this can
  // never loop, and leave any gateway it makes to the next pass.
  std::vector<uint64_t> echo_dirty;
  Apply(mirror_->interfaces().Sync(journal), echo_dirty);
  mirror_->subnets().Sync(journal);
  ReevaluateGroups(echo_dirty, nullptr);

#if FREMONT_AUDIT_ENABLED
  AuditState();
#endif

  span.End(telemetry::TraceEventKind::kCorrelationPass, now,
           StringPrintf("incremental gateways=%d orphan_subnets=%d",
                        report.gateways_inferred_from_mac,
                        static_cast<int>(report.subnets_without_gateway.size())));
  return report;
}

}  // namespace fremont
