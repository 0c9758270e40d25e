#include "src/journal/journal.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace fremont {

template <typename Key>
void Journal::AddToIndex(AvlTree<Key, std::vector<RecordId>>& index, const Key& key,
                         RecordId id) {
  if (auto* ids = index.Find(key); ids != nullptr) {
    if (std::find(ids->begin(), ids->end(), id) == ids->end()) {
      ids->push_back(id);
    }
  } else {
    index.Insert(key, {id});
  }
}

template <typename Key>
void Journal::RemoveFromIndex(AvlTree<Key, std::vector<RecordId>>& index, const Key& key,
                              RecordId id) {
  if (auto* ids = index.Find(key); ids != nullptr) {
    ids->erase(std::remove(ids->begin(), ids->end(), id), ids->end());
    if (ids->empty()) {
      index.Erase(key);
    }
  }
}

InterfaceRecord* Journal::MutableInterface(RecordId id) {
  auto it = interfaces_.find(id);
  return it != interfaces_.end() ? &it->second : nullptr;
}

void Journal::IndexInterface(const InterfaceRecord& rec) {
  AddToIndex(by_ip_, rec.ip.value(), rec.id);
  if (rec.mac.has_value()) {
    AddToIndex(by_mac_, rec.mac->ToU64(), rec.id);
  }
  if (!rec.dns_name.empty()) {
    AddToIndex(by_name_, rec.dns_name, rec.id);
  }
}

void Journal::UnindexInterface(const InterfaceRecord& rec) {
  RemoveFromIndex(by_ip_, rec.ip.value(), rec.id);
  if (rec.mac.has_value()) {
    RemoveFromIndex(by_mac_, rec.mac->ToU64(), rec.id);
  }
  if (!rec.dns_name.empty()) {
    RemoveFromIndex(by_name_, rec.dns_name, rec.id);
  }
}

void Journal::TouchInterface(RecordId id) {
  auto pos = interface_mod_pos_.find(id);
  if (pos != interface_mod_pos_.end()) {
    interface_mod_order_.erase(pos->second);
    interface_mod_pos_.erase(pos);
  }
  // Canonical position: ascending (last_changed, id). A late-flushed batch
  // store can carry an observation stamp older than the current tail, so the
  // walk from the tail is a loop — but a freshly-touched record is almost
  // always the newest, making the common case a single comparison.
  const InterfaceRecord& rec = interfaces_.at(id);
  auto it = interface_mod_order_.end();
  while (it != interface_mod_order_.begin()) {
    auto prev = std::prev(it);
    const InterfaceRecord& other = interfaces_.at(*prev);
    if (other.ts.last_changed < rec.ts.last_changed ||
        (other.ts.last_changed == rec.ts.last_changed && *prev < id)) {
      break;
    }
    it = prev;
  }
  interface_mod_pos_[id] = interface_mod_order_.insert(it, id);
}

// --- Change feed ---------------------------------------------------------------

void Journal::LogChange(RecordKind kind, ChangeKind change, RecordId id) {
  pending_changes_.push_back(PendingChange{kind, change, id, store_trace_id_, store_span_id_});
}

void Journal::BumpGeneration() {
  ++generation_;
  for (const PendingChange& pending : pending_changes_) {
    const uint64_t key = ChangelogKey(pending.kind, pending.id);
    auto pos = changelog_pos_.find(key);
    if (pos != changelog_pos_.end()) {
      // Compaction: one live entry per record. Ids are never reused, so a
      // delete is final — a store queued after a delete (impossible today)
      // would be a bug, not a resurrection; keep the tombstone.
      ChangelogEntry entry = *pos->second;
      entry.generation = generation_;
      // Provenance follows the latest writer, matching the generation stamp.
      entry.trace_id = pending.trace_id;
      entry.span_id = pending.span_id;
      if (pending.change == ChangeKind::kDelete) {
        entry.change = ChangeKind::kDelete;
      }
      changelog_.erase(pos->second);
      changelog_.push_back(entry);
      pos->second = std::prev(changelog_.end());
      continue;
    }
    changelog_.push_back(ChangelogEntry{generation_, pending.kind, pending.change, pending.id,
                                        pending.trace_id, pending.span_id});
    changelog_pos_[key] = std::prev(changelog_.end());
    while (changelog_.size() > changelog_capacity_) {
      const ChangelogEntry& oldest = changelog_.front();
      changelog_horizon_ = std::max(changelog_horizon_, oldest.generation);
      changelog_pos_.erase(ChangelogKey(oldest.kind, oldest.id));
      changelog_.pop_front();
    }
  }
  pending_changes_.clear();
#if FREMONT_AUDIT_ENABLED
  AuditChangelog();
#endif
}

void Journal::set_changelog_capacity(size_t capacity) {
  changelog_capacity_ = capacity;
  while (changelog_.size() > changelog_capacity_) {
    const ChangelogEntry& oldest = changelog_.front();
    changelog_horizon_ = std::max(changelog_horizon_, oldest.generation);
    changelog_pos_.erase(ChangelogKey(oldest.kind, oldest.id));
    changelog_.pop_front();
  }
#if FREMONT_AUDIT_ENABLED
  AuditChangelog();
#endif
}

#if FREMONT_AUDIT_ENABLED
void Journal::AuditChangelog() {
  FREMONT_AUDIT_CHECK(pending_changes_.empty(), "pending changes survived BumpGeneration");
  FREMONT_AUDIT_CHECK(changelog_.size() <= changelog_capacity_,
                      StringPrintf("size=%zu capacity=%zu", changelog_.size(),
                                   changelog_capacity_));
  FREMONT_AUDIT_CHECK(
      changelog_pos_.size() == changelog_.size(),
      StringPrintf("pos index holds %zu keys for %zu entries", changelog_pos_.size(),
                   changelog_.size()));
  FREMONT_AUDIT_CHECK(changelog_horizon_ >= audited_horizon_,
                      StringPrintf("horizon moved backwards: %llu -> %llu",
                                   static_cast<unsigned long long>(audited_horizon_),
                                   static_cast<unsigned long long>(changelog_horizon_)));
  audited_horizon_ = changelog_horizon_;
  FREMONT_AUDIT_CHECK(changelog_horizon_ <= generation_,
                      StringPrintf("horizon=%llu generation=%llu",
                                   static_cast<unsigned long long>(changelog_horizon_),
                                   static_cast<unsigned long long>(generation_)));
  uint64_t prev_generation = 0;
  for (auto it = changelog_.begin(); it != changelog_.end(); ++it) {
    const ChangelogEntry& entry = *it;
    const std::string where = StringPrintf(
        "entry kind=%d id=%u gen=%llu", static_cast<int>(entry.kind), entry.id,
        static_cast<unsigned long long>(entry.generation));
    FREMONT_AUDIT_CHECK(entry.generation >= prev_generation,
                        where + ": generations must be nondecreasing front-to-back");
    prev_generation = entry.generation;
    FREMONT_AUDIT_CHECK(
        entry.generation >= changelog_horizon_ && entry.generation <= generation_,
        where + ": generation outside (horizon, current] window");
    auto pos = changelog_pos_.find(ChangelogKey(entry.kind, entry.id));
    FREMONT_AUDIT_CHECK(pos != changelog_pos_.end() && pos->second == it,
                        where + ": compaction lost — not the one live entry for its id");
    bool live = false;
    switch (entry.kind) {
      case RecordKind::kInterface:
        live = interfaces_.contains(entry.id);
        break;
      case RecordKind::kGateway:
        live = gateways_.contains(entry.id);
        break;
      case RecordKind::kSubnet:
        live = subnets_.contains(entry.id);
        break;
    }
    if (entry.change == ChangeKind::kStore) {
      FREMONT_AUDIT_CHECK(live, where + ": store entry for a dead record "
                                        "(delete must override store)");
    } else {
      FREMONT_AUDIT_CHECK(!live, where + ": tombstone for a live record");
    }
  }
}
#endif  // FREMONT_AUDIT_ENABLED

Journal::Delta Journal::CollectChangesSince(RecordKind kind, uint64_t since) const {
  Delta delta;
  if (since < changelog_horizon_ || since > generation_) {
    return delta;  // Evicted past, or a different Journal incarnation.
  }
  delta.servable = true;
  // The changelog is nondecreasing by generation front→back; the suffix with
  // generation > since is what the caller is missing.
  auto it = changelog_.end();
  while (it != changelog_.begin() && std::prev(it)->generation > since) {
    it = std::prev(it);
  }
  for (; it != changelog_.end(); ++it) {
    if (it->kind == kind) {
      delta.entries.push_back(*it);
    }
  }
  return delta;
}

Journal::StoreResult Journal::StoreInterface(const InterfaceObservation& obs,
                                             DiscoverySource source, SimTime now) {
  StoreResult result;

  // Candidate records sharing this IP, read in place: this is the store hot
  // path, and the candidate scans below finish before any index mutation.
  static const std::vector<RecordId> kNoCandidates;
  const auto* found_ids = by_ip_.Find(obs.ip.value());
  const std::vector<RecordId>& candidates = found_ids != nullptr ? *found_ids : kNoCandidates;

  InterfaceRecord* target = nullptr;
  if (obs.mac.has_value()) {
    // Exact (IP, MAC) match first.
    for (RecordId id : candidates) {
      InterfaceRecord* rec = MutableInterface(id);
      if (rec != nullptr && rec->mac.has_value() && *rec->mac == *obs.mac) {
        target = rec;
        break;
      }
    }
    // Else adopt a MAC-less record for this IP.
    if (target == nullptr) {
      for (RecordId id : candidates) {
        InterfaceRecord* rec = MutableInterface(id);
        if (rec != nullptr && !rec->mac.has_value()) {
          target = rec;
          break;
        }
      }
    }
    // Else this is a *new* (IP, MAC) pair — a duplicate address assignment or
    // changed hardware. Open a fresh record; the old one stays as evidence.
  } else {
    // No MAC in the observation: update the most recently verified candidate.
    for (RecordId id : candidates) {
      InterfaceRecord* rec = MutableInterface(id);
      if (rec != nullptr &&
          (target == nullptr || rec->ts.last_verified > target->ts.last_verified)) {
        target = rec;
      }
    }
  }

  if (target == nullptr) {
    InterfaceRecord rec;
    rec.id = next_interface_id_++;
    rec.ip = obs.ip;
    rec.mac = obs.mac;
    rec.dns_name = obs.dns_name;
    rec.mask = obs.mask;
    rec.rip_source = obs.rip_source;
    rec.rip_promiscuous = obs.rip_promiscuous;
    rec.services = obs.services;
    rec.sources = SourceBit(source);
    rec.ts.first_discovered = rec.ts.last_changed = rec.ts.last_verified = now;
    if (source != DiscoverySource::kDns) {
      rec.ts.last_wire_verified = now;
    }
    IndexInterface(rec);
    RecordId id = rec.id;
    interfaces_.emplace(id, std::move(rec));
    TouchInterface(id);
    LogChange(RecordKind::kInterface, ChangeKind::kStore, id);
    BumpGeneration();
    result.id = id;
    result.created = true;
    result.changed = true;
    return result;
  }

  bool changed = false;
  if (obs.mac.has_value() && !target->mac.has_value()) {
    target->mac = obs.mac;
    AddToIndex(by_mac_, obs.mac->ToU64(), target->id);
    changed = true;
  }
  if (!obs.dns_name.empty() && obs.dns_name != target->dns_name) {
    if (!target->dns_name.empty()) {
      RemoveFromIndex(by_name_, target->dns_name, target->id);
    }
    target->dns_name = obs.dns_name;
    AddToIndex(by_name_, target->dns_name, target->id);
    changed = true;
  }
  if (obs.mask.has_value() && obs.mask != target->mask) {
    target->mask = obs.mask;
    changed = true;
  }
  if (obs.rip_source && !target->rip_source) {
    target->rip_source = true;
    changed = true;
  }
  if (obs.rip_promiscuous && !target->rip_promiscuous) {
    target->rip_promiscuous = true;
    changed = true;
  }
  if ((obs.services & ~target->services) != 0) {
    target->services |= obs.services;
    changed = true;
  }
  if ((target->sources & SourceBit(source)) == 0) {
    target->sources |= SourceBit(source);
    // Learning that another module can see the interface is corroboration,
    // not a change to the interface itself: timestamps other than
    // last_verified are untouched.
  }
  // max(): a batched store flushing after another module already verified
  // this record carries an older observation stamp; verification times only
  // move forward, exactly as eager per-record stores would have left them.
  target->ts.last_verified = std::max(target->ts.last_verified, now);
  if (source != DiscoverySource::kDns) {
    target->ts.last_wire_verified = std::max(target->ts.last_wire_verified, now);
  }
  if (changed) {
    target->ts.last_changed = std::max(target->ts.last_changed, now);
    TouchInterface(target->id);
  }
  LogChange(RecordKind::kInterface, ChangeKind::kStore, target->id);
  BumpGeneration();  // last_verified moved even when nothing else changed.
  result.id = target->id;
  result.changed = changed;
  return result;
}

void Journal::MergeGateways(RecordId to, RecordId from, SimTime now) {
  if (to == from) {
    return;
  }
  auto to_it = gateways_.find(to);
  auto from_it = gateways_.find(from);
  if (to_it == gateways_.end() || from_it == gateways_.end()) {
    return;
  }
  GatewayRecord& dst = to_it->second;
  GatewayRecord& src = from_it->second;
  for (RecordId iface_id : src.interface_ids) {
    if (std::find(dst.interface_ids.begin(), dst.interface_ids.end(), iface_id) ==
        dst.interface_ids.end()) {
      dst.interface_ids.push_back(iface_id);
    }
    if (InterfaceRecord* rec = MutableInterface(iface_id); rec != nullptr) {
      if (rec->gateway_id != to) {
        rec->gateway_id = to;
        LogChange(RecordKind::kInterface, ChangeKind::kStore, iface_id);
      }
    }
  }
  for (const Subnet& subnet : src.connected_subnets) {
    if (std::find(dst.connected_subnets.begin(), dst.connected_subnets.end(), subnet) ==
        dst.connected_subnets.end()) {
      dst.connected_subnets.push_back(subnet);
    }
  }
  if (dst.name.empty()) {
    dst.name = src.name;
  }
  dst.sources |= src.sources;
  dst.ts.last_changed = std::max(dst.ts.last_changed, now);
  dst.ts.last_verified = std::max({dst.ts.last_verified, src.ts.last_verified, now});
  dst.ts.first_discovered = std::min(dst.ts.first_discovered, src.ts.first_discovered);

  // Re-point subnet records.
  for (auto& [subnet_id, subnet_rec] : subnets_) {
    auto& gw_ids = subnet_rec.gateway_ids;
    if (std::find(gw_ids.begin(), gw_ids.end(), from) != gw_ids.end()) {
      gw_ids.erase(std::remove(gw_ids.begin(), gw_ids.end(), from), gw_ids.end());
      if (std::find(gw_ids.begin(), gw_ids.end(), to) == gw_ids.end()) {
        gw_ids.push_back(to);
      }
      LogChange(RecordKind::kSubnet, ChangeKind::kStore, subnet_id);
    }
  }
  LogChange(RecordKind::kGateway, ChangeKind::kDelete, from);
  LogChange(RecordKind::kGateway, ChangeKind::kStore, to);
  gateways_.erase(from_it);
}

void Journal::AttachGatewayToSubnet(const Subnet& subnet, RecordId gateway_id,
                                    DiscoverySource source, SimTime now) {
  SubnetObservation obs;
  obs.subnet = subnet;
  StoreResult r = StoreSubnet(obs, source, now);
  auto it = subnets_.find(r.id);
  if (it == subnets_.end()) {
    return;
  }
  auto& gw_ids = it->second.gateway_ids;
  if (std::find(gw_ids.begin(), gw_ids.end(), gateway_id) == gw_ids.end()) {
    gw_ids.push_back(gateway_id);
    it->second.ts.last_changed = std::max(it->second.ts.last_changed, now);
    LogChange(RecordKind::kSubnet, ChangeKind::kStore, it->second.id);
  }
}

Journal::StoreResult Journal::StoreGateway(const GatewayObservation& obs, DiscoverySource source,
                                           SimTime now) {
  StoreResult result;
  if (obs.interface_ips.empty() && obs.name.empty()) {
    return result;
  }

  // Ensure interface records exist for all member addresses.
  std::vector<RecordId> iface_ids;
  for (Ipv4Address ip : obs.interface_ips) {
    InterfaceObservation iface_obs;
    iface_obs.ip = ip;
    iface_ids.push_back(StoreInterface(iface_obs, source, now).id);
  }

  // Find the gateway: by member interface first, then by name.
  RecordId gw_id = kInvalidRecordId;
  std::vector<RecordId> to_merge;
  for (RecordId iface_id : iface_ids) {
    const InterfaceRecord* rec = GetInterface(iface_id);
    if (rec != nullptr && rec->gateway_id != kInvalidRecordId &&
        gateways_.contains(rec->gateway_id)) {
      if (gw_id == kInvalidRecordId) {
        gw_id = rec->gateway_id;
      } else if (rec->gateway_id != gw_id) {
        to_merge.push_back(rec->gateway_id);  // Cross-correlation: same box.
      }
    }
  }
  if (gw_id == kInvalidRecordId && !obs.name.empty()) {
    for (const auto& [id, rec] : gateways_) {
      if (!rec.name.empty() && EqualsIgnoreCase(rec.name, obs.name)) {
        gw_id = id;
        break;
      }
    }
  }

  bool changed = false;
  if (gw_id == kInvalidRecordId) {
    GatewayRecord rec;
    rec.id = next_gateway_id_++;
    rec.name = obs.name;
    rec.sources = SourceBit(source);
    rec.ts.first_discovered = rec.ts.last_changed = rec.ts.last_verified = now;
    gw_id = rec.id;
    gateways_.emplace(gw_id, std::move(rec));
    result.created = true;
    changed = true;
  }
  for (RecordId other : to_merge) {
    MergeGateways(gw_id, other, now);
    changed = true;
  }

  GatewayRecord& gw = gateways_.at(gw_id);
  for (RecordId iface_id : iface_ids) {
    if (std::find(gw.interface_ids.begin(), gw.interface_ids.end(), iface_id) ==
        gw.interface_ids.end()) {
      gw.interface_ids.push_back(iface_id);
      changed = true;
    }
    if (InterfaceRecord* rec = MutableInterface(iface_id);
        rec != nullptr && rec->gateway_id != gw_id) {
      rec->gateway_id = gw_id;
      rec->ts.last_changed = std::max(rec->ts.last_changed, now);
      TouchInterface(iface_id);
      LogChange(RecordKind::kInterface, ChangeKind::kStore, iface_id);
    }
  }
  for (const Subnet& subnet : obs.connected_subnets) {
    if (std::find(gw.connected_subnets.begin(), gw.connected_subnets.end(), subnet) ==
        gw.connected_subnets.end()) {
      gw.connected_subnets.push_back(subnet);
      changed = true;
    }
    AttachGatewayToSubnet(subnet, gw_id, source, now);
  }
  if (gw.name.empty() && !obs.name.empty()) {
    gw.name = obs.name;
    changed = true;
  }
  gw.sources |= SourceBit(source);
  gw.ts.last_verified = std::max(gw.ts.last_verified, now);
  if (changed) {
    gw.ts.last_changed = std::max(gw.ts.last_changed, now);
  }
  LogChange(RecordKind::kGateway, ChangeKind::kStore, gw_id);
  BumpGeneration();
  result.id = gw_id;
  result.changed = changed;
  return result;
}

Journal::StoreResult Journal::StoreSubnet(const SubnetObservation& obs, DiscoverySource source,
                                          SimTime now) {
  StoreResult result;
  RecordId* found = subnet_by_network_.Find(obs.subnet.network().value());
  if (found == nullptr) {
    SubnetRecord rec;
    rec.id = next_subnet_id_++;
    rec.subnet = obs.subnet;
    rec.host_count = obs.host_count;
    rec.lowest_assigned = obs.lowest_assigned;
    rec.highest_assigned = obs.highest_assigned;
    rec.sources = SourceBit(source);
    rec.ts.first_discovered = rec.ts.last_changed = rec.ts.last_verified = now;
    RecordId id = rec.id;
    subnet_by_network_.Insert(obs.subnet.network().value(), id);
    subnets_.emplace(id, std::move(rec));
    LogChange(RecordKind::kSubnet, ChangeKind::kStore, id);
    BumpGeneration();
    result.id = id;
    result.created = true;
    result.changed = true;
    return result;
  }

  SubnetRecord& rec = subnets_.at(*found);
  bool changed = false;
  if (obs.subnet.mask() != rec.subnet.mask() &&
      obs.subnet.mask().PrefixLength() > rec.subnet.mask().PrefixLength()) {
    // A more specific mask observation (e.g. from the subnet-mask module
    // after traceroute's /24 assumption) refines the record.
    rec.subnet = obs.subnet;
    changed = true;
  }
  if (obs.host_count >= 0 && obs.host_count != rec.host_count) {
    rec.host_count = obs.host_count;
    changed = true;
  }
  if (!obs.lowest_assigned.IsZero() &&
      (rec.lowest_assigned.IsZero() || obs.lowest_assigned < rec.lowest_assigned)) {
    rec.lowest_assigned = obs.lowest_assigned;
    changed = true;
  }
  if (!obs.highest_assigned.IsZero() && obs.highest_assigned > rec.highest_assigned) {
    rec.highest_assigned = obs.highest_assigned;
    changed = true;
  }
  rec.sources |= SourceBit(source);
  rec.ts.last_verified = std::max(rec.ts.last_verified, now);
  if (changed) {
    rec.ts.last_changed = std::max(rec.ts.last_changed, now);
  }
  LogChange(RecordKind::kSubnet, ChangeKind::kStore, rec.id);
  BumpGeneration();
  result.id = rec.id;
  result.changed = changed;
  return result;
}

// --- Queries -------------------------------------------------------------------

const InterfaceRecord* Journal::GetInterface(RecordId id) const {
  auto it = interfaces_.find(id);
  return it != interfaces_.end() ? &it->second : nullptr;
}

std::vector<InterfaceRecord> Journal::FindInterfacesByIp(Ipv4Address ip) const {
  std::vector<InterfaceRecord> out;
  if (const auto* ids = by_ip_.Find(ip.value()); ids != nullptr) {
    for (RecordId id : *ids) {
      if (const auto* rec = GetInterface(id); rec != nullptr) {
        out.push_back(*rec);
      }
    }
  }
  return out;
}

std::vector<InterfaceRecord> Journal::FindInterfacesByMac(MacAddress mac) const {
  std::vector<InterfaceRecord> out;
  if (const auto* ids = by_mac_.Find(mac.ToU64()); ids != nullptr) {
    for (RecordId id : *ids) {
      if (const auto* rec = GetInterface(id); rec != nullptr) {
        out.push_back(*rec);
      }
    }
  }
  return out;
}

std::vector<InterfaceRecord> Journal::FindInterfacesByName(const std::string& name) const {
  std::vector<InterfaceRecord> out;
  if (const auto* ids = by_name_.Find(name); ids != nullptr) {
    for (RecordId id : *ids) {
      if (const auto* rec = GetInterface(id); rec != nullptr) {
        out.push_back(*rec);
      }
    }
  }
  return out;
}

std::vector<InterfaceRecord> Journal::FindInterfacesInRange(Ipv4Address lo,
                                                            Ipv4Address hi) const {
  std::vector<InterfaceRecord> out;
  by_ip_.VisitRange(lo.value(), hi.value(),
                    [&](const uint32_t&, const std::vector<RecordId>& ids) {
                      for (RecordId id : ids) {
                        if (const auto* rec = GetInterface(id); rec != nullptr) {
                          out.push_back(*rec);
                        }
                      }
                    });
  return out;
}

std::vector<InterfaceRecord> Journal::AllInterfaces() const {
  std::vector<InterfaceRecord> out;
  out.reserve(interfaces_.size());
  for (RecordId id : interface_mod_order_) {
    if (const auto* rec = GetInterface(id); rec != nullptr) {
      out.push_back(*rec);
    }
  }
  return out;
}

std::vector<InterfaceRecord> Journal::FindInterfacesModifiedSince(SimTime since) const {
  // The mod-order list is sorted ascending by (last_changed, id), so the
  // matches are exactly a suffix: walk backward from the tail until the
  // first record older than `since`, then emit forward.
  auto it = interface_mod_order_.end();
  size_t matches = 0;
  while (it != interface_mod_order_.begin()) {
    auto prev = std::prev(it);
    if (interfaces_.at(*prev).ts.last_changed < since) {
      break;
    }
    it = prev;
    ++matches;
  }
  std::vector<InterfaceRecord> out;
  out.reserve(matches);
  for (; it != interface_mod_order_.end(); ++it) {
    out.push_back(interfaces_.at(*it));
  }
  return out;
}

bool Journal::DeleteInterface(RecordId id) {
  auto it = interfaces_.find(id);
  if (it == interfaces_.end()) {
    return false;
  }
  UnindexInterface(it->second);
  if (it->second.gateway_id != kInvalidRecordId) {
    auto gw = gateways_.find(it->second.gateway_id);
    if (gw != gateways_.end()) {
      auto& ids = gw->second.interface_ids;
      const size_t before = ids.size();
      ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      if (ids.size() != before) {
        LogChange(RecordKind::kGateway, ChangeKind::kStore, gw->first);
      }
    }
  }
  auto pos = interface_mod_pos_.find(id);
  if (pos != interface_mod_pos_.end()) {
    interface_mod_order_.erase(pos->second);
    interface_mod_pos_.erase(pos);
  }
  interfaces_.erase(it);
  LogChange(RecordKind::kInterface, ChangeKind::kDelete, id);
  BumpGeneration();
  return true;
}

const GatewayRecord* Journal::GetGateway(RecordId id) const {
  auto it = gateways_.find(id);
  return it != gateways_.end() ? &it->second : nullptr;
}

const GatewayRecord* Journal::FindGatewayByInterfaceIp(Ipv4Address ip) const {
  if (const auto* ids = by_ip_.Find(ip.value()); ids != nullptr) {
    for (RecordId id : *ids) {
      const InterfaceRecord* rec = GetInterface(id);
      if (rec != nullptr && rec->gateway_id != kInvalidRecordId) {
        if (const auto* gw = GetGateway(rec->gateway_id); gw != nullptr) {
          return gw;
        }
      }
    }
  }
  return nullptr;
}

std::vector<GatewayRecord> Journal::AllGateways() const {
  std::vector<GatewayRecord> out;
  out.reserve(gateways_.size());
  for (const auto& [id, rec] : gateways_) {
    (void)id;
    out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const GatewayRecord& a, const GatewayRecord& b) { return a.id < b.id; });
  return out;
}

bool Journal::DeleteGateway(RecordId id) {
  auto it = gateways_.find(id);
  if (it == gateways_.end()) {
    return false;
  }
  for (RecordId iface_id : it->second.interface_ids) {
    if (InterfaceRecord* rec = MutableInterface(iface_id); rec != nullptr) {
      if (rec->gateway_id != kInvalidRecordId) {
        rec->gateway_id = kInvalidRecordId;
        LogChange(RecordKind::kInterface, ChangeKind::kStore, iface_id);
      }
    }
  }
  for (auto& [subnet_id, subnet_rec] : subnets_) {
    auto& gw_ids = subnet_rec.gateway_ids;
    const size_t before = gw_ids.size();
    gw_ids.erase(std::remove(gw_ids.begin(), gw_ids.end(), id), gw_ids.end());
    if (gw_ids.size() != before) {
      LogChange(RecordKind::kSubnet, ChangeKind::kStore, subnet_id);
    }
  }
  gateways_.erase(it);
  LogChange(RecordKind::kGateway, ChangeKind::kDelete, id);
  BumpGeneration();
  return true;
}

const SubnetRecord* Journal::GetSubnet(RecordId id) const {
  auto it = subnets_.find(id);
  return it != subnets_.end() ? &it->second : nullptr;
}

const SubnetRecord* Journal::FindSubnet(const Subnet& subnet) const {
  const RecordId* id = subnet_by_network_.Find(subnet.network().value());
  return id != nullptr ? GetSubnet(*id) : nullptr;
}

std::vector<SubnetRecord> Journal::AllSubnets() const {
  std::vector<SubnetRecord> out;
  out.reserve(subnets_.size());
  subnet_by_network_.VisitInOrder([&](const uint32_t&, const RecordId& id) {
    if (const auto* rec = GetSubnet(id); rec != nullptr) {
      out.push_back(*rec);
    }
  });
  return out;
}

bool Journal::DeleteSubnet(RecordId id) {
  auto it = subnets_.find(id);
  if (it == subnets_.end()) {
    return false;
  }
  subnet_by_network_.Erase(it->second.subnet.network().value());
  subnets_.erase(it);
  LogChange(RecordKind::kSubnet, ChangeKind::kDelete, id);
  BumpGeneration();
  return true;
}

JournalStats Journal::Stats() const {
  return JournalStats{interfaces_.size(), gateways_.size(), subnets_.size()};
}

JournalMemoryUsage Journal::MemoryUsage() const {
  JournalMemoryUsage usage;
  // Record payloads plus their heap allocations.
  for (const auto& [id, rec] : interfaces_) {
    (void)id;
    usage.interface_bytes += sizeof(InterfaceRecord) + rec.dns_name.capacity();
  }
  for (const auto& [id, rec] : gateways_) {
    (void)id;
    usage.gateway_bytes += sizeof(GatewayRecord) + rec.name.capacity() +
                           rec.interface_ids.capacity() * sizeof(RecordId) +
                           rec.connected_subnets.capacity() * sizeof(Subnet);
  }
  for (const auto& [id, rec] : subnets_) {
    (void)id;
    usage.subnet_bytes += sizeof(SubnetRecord) + rec.gateway_ids.capacity() * sizeof(RecordId);
  }
  // Index shares: AVL node ≈ key + value-vector + 2 child pointers + height;
  // the modification list adds two pointers plus a map slot per interface.
  constexpr size_t kAvlNodeOverhead = 2 * sizeof(void*) + sizeof(int);
  const size_t per_iface_index =
      3 * (kAvlNodeOverhead + sizeof(std::vector<RecordId>) + sizeof(RecordId)) +
      2 * sizeof(void*) + sizeof(RecordId) * 2;
  usage.interface_bytes += interfaces_.size() * per_iface_index;
  usage.subnet_bytes += subnets_.size() * (kAvlNodeOverhead + sizeof(RecordId) + sizeof(uint32_t));

  usage.total_bytes = usage.interface_bytes + usage.gateway_bytes + usage.subnet_bytes;
  if (!interfaces_.empty()) {
    usage.bytes_per_interface =
        static_cast<double>(usage.interface_bytes) / static_cast<double>(interfaces_.size());
  }
  if (!gateways_.empty()) {
    usage.bytes_per_gateway =
        static_cast<double>(usage.gateway_bytes) / static_cast<double>(gateways_.size());
  }
  if (!subnets_.empty()) {
    usage.bytes_per_subnet =
        static_cast<double>(usage.subnet_bytes) / static_cast<double>(subnets_.size());
  }
  return usage;
}

bool Journal::CheckIndexes() const {
  bool ok = true;
  // Every record must be findable through each index it should appear in.
  for (const auto& [id, rec] : interfaces_) {
    const auto* by_ip = by_ip_.Find(rec.ip.value());
    if (by_ip == nullptr || std::find(by_ip->begin(), by_ip->end(), id) == by_ip->end()) {
      ok = false;
    }
    if (rec.mac.has_value()) {
      const auto* by_mac = by_mac_.Find(rec.mac->ToU64());
      if (by_mac == nullptr || std::find(by_mac->begin(), by_mac->end(), id) == by_mac->end()) {
        ok = false;
      }
    }
    if (!rec.dns_name.empty()) {
      const auto* by_name = by_name_.Find(rec.dns_name);
      if (by_name == nullptr ||
          std::find(by_name->begin(), by_name->end(), id) == by_name->end()) {
        ok = false;
      }
    }
    if (!interface_mod_pos_.contains(id)) {
      ok = false;
    }
  }
  // Index entries must not dangle.
  by_ip_.VisitInOrder([&](const uint32_t&, const std::vector<RecordId>& ids) {
    for (RecordId id : ids) {
      if (!interfaces_.contains(id)) {
        ok = false;
      }
    }
  });
  if (interface_mod_order_.size() != interfaces_.size()) {
    ok = false;
  }
  return ok;
}

// --- Persistence -----------------------------------------------------------------

namespace {
constexpr uint32_t kJournalMagic = 0x46524a4c;  // "FRJL"
constexpr uint16_t kJournalVersion = 3;  // v3: timestamps carry last_wire_verified.
}  // namespace

void Journal::EncodeAll(ByteWriter& writer) const {
  // Rough per-record sizes keep the snapshot encode to O(1) reallocations.
  writer.Reserve(32 + interfaces_.size() * 96 + gateways_.size() * 72 + subnets_.size() * 56);
  writer.WriteU32(kJournalMagic);
  writer.WriteU16(kJournalVersion);
  // Interfaces in modification order so Load reconstructs the same ordering.
  writer.WriteU32(static_cast<uint32_t>(interfaces_.size()));
  for (RecordId id : interface_mod_order_) {
    interfaces_.at(id).Encode(writer);
  }
  writer.WriteU32(static_cast<uint32_t>(gateways_.size()));
  for (const auto& rec : AllGateways()) {
    rec.Encode(writer);
  }
  writer.WriteU32(static_cast<uint32_t>(subnets_.size()));
  for (const auto& rec : AllSubnets()) {
    rec.Encode(writer);
  }
  writer.WriteU32(next_interface_id_);
  writer.WriteU32(next_gateway_id_);
  writer.WriteU32(next_subnet_id_);
}

bool Journal::DecodeAll(ByteReader& reader) {
  if (reader.ReadU32() != kJournalMagic || reader.ReadU16() != kJournalVersion) {
    return false;
  }
  // Any bad record rejects the whole snapshot, leaving this Journal as it
  // was: a duplicated id would otherwise load with one record missing, a
  // duplicated subnet network with one record unreachable by network, and
  // a next id at or below a loaded id would hand that id out again.
  Journal fresh;
  uint32_t n_interfaces = reader.ReadU32();
  for (uint32_t i = 0; i < n_interfaces; ++i) {
    auto rec = InterfaceRecord::Decode(reader);
    if (!rec.has_value()) {
      return false;
    }
    const auto [it, inserted] = fresh.interfaces_.emplace(rec->id, std::move(*rec));
    if (!inserted) {
      return false;
    }
    fresh.IndexInterface(it->second);
    fresh.TouchInterface(it->first);
  }
  uint32_t n_gateways = reader.ReadU32();
  for (uint32_t i = 0; i < n_gateways; ++i) {
    auto rec = GatewayRecord::Decode(reader);
    if (!rec.has_value() || !fresh.gateways_.emplace(rec->id, std::move(*rec)).second) {
      return false;
    }
  }
  uint32_t n_subnets = reader.ReadU32();
  for (uint32_t i = 0; i < n_subnets; ++i) {
    auto rec = SubnetRecord::Decode(reader);
    if (!rec.has_value()) {
      return false;
    }
    const auto [it, inserted] = fresh.subnets_.emplace(rec->id, std::move(*rec));
    if (!inserted ||
        !fresh.subnet_by_network_.Insert(it->second.subnet.network().value(), it->first)) {
      return false;
    }
  }
  fresh.next_interface_id_ = reader.ReadU32();
  fresh.next_gateway_id_ = reader.ReadU32();
  fresh.next_subnet_id_ = reader.ReadU32();
  const auto next_id_clear = [](const auto& records, RecordId next_id) {
    return std::all_of(records.begin(), records.end(),
                       [next_id](const auto& entry) { return entry.first < next_id; });
  };
  if (!reader.ok() || reader.remaining() != 0 ||
      !next_id_clear(fresh.interfaces_, fresh.next_interface_id_) ||
      !next_id_clear(fresh.gateways_, fresh.next_gateway_id_) ||
      !next_id_clear(fresh.subnets_, fresh.next_subnet_id_)) {
    return false;
  }
  // Loading replaces the whole record set: advance past every generation this
  // instance has handed out so stale cache tags can never match. The
  // changelog starts empty with the horizon at the new generation, so every
  // pre-load delta cursor is told to do a full resync.
  fresh.generation_ = generation_ + 1;
  fresh.changelog_horizon_ = fresh.generation_;
  fresh.changelog_capacity_ = changelog_capacity_;
  *this = std::move(fresh);
  return true;
}

bool Journal::SaveToFile(const std::string& path) const {
  ByteWriter writer;
  EncodeAll(writer);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    FLOG(kError) << "journal: cannot open " << path << " for writing";
    return false;
  }
  out.write(reinterpret_cast<const char*>(writer.buffer().data()),
            static_cast<std::streamsize>(writer.size()));
  return static_cast<bool>(out);
}

bool Journal::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  ByteBuffer data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ByteReader reader(data);
  return DecodeAll(reader);
}

}  // namespace fremont
