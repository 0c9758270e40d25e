#include "src/journal/replicate.h"

#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/journal/batch_writer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"

namespace fremont {

namespace {

// The fields an observation carries; everything else (ids, sources,
// timestamps, back-links) is local to each Journal.
auto Observed(const InterfaceRecord& r) {
  return std::tie(r.ip, r.mac, r.dns_name, r.mask, r.rip_source, r.rip_promiscuous, r.services);
}
auto Observed(const GatewayRecord& r) {
  return std::tie(r.name, r.interface_ids, r.connected_subnets);
}
auto Observed(const SubnetRecord& r) {
  return std::tie(r.subnet, r.host_count, r.lowest_assigned, r.highest_assigned);
}

// The (IP, MAC) pair replication matches interfaces by across sites.
std::pair<uint32_t, uint64_t> Address(const InterfaceRecord& r) {
  return {r.ip.value(), r.mac.has_value() ? r.mac->ToU64() : ~uint64_t{0}};
}

// What a sync brought that is worth replaying: records new to the mirror,
// and records whose observation changed.
template <typename Record>
std::vector<const Record*> Replayable(const TableSync<Record>& sync) {
  std::vector<const Record*> out;
  for (const RecordChange<Record>& change : sync.changes) {
    if (change.after.has_value() &&
        (!change.before.has_value() || Observed(*change.before) != Observed(*change.after))) {
      out.push_back(&*change.after);
    }
  }
  return out;
}

}  // namespace

ReplicationStats ReplicationPeer::Pull(JournalClient& local) {
  ReplicationStats stats;
  // Mod-order: the last mirrored interface carries the newest change.
  const std::vector<InterfaceRecord>& mirrored = mirror_.interfaces().records();
  const bool had_any = !mirrored.empty();
  const SimTime newest_before = had_any ? mirrored.back().ts.last_changed : SimTime();
  const ChangeFeedMirror::Changes changes = mirror_.Sync(*remote_);

  // Interface deletions: the local record with the same (IP, MAC) goes too,
  // unless the peer still holds a live record with it (it re-learned the
  // address). Replaying that tombstone would delete what the peer still
  // has, and the echo would delete the peer's copy on the way back.
  std::map<std::pair<uint32_t, uint64_t>, const InterfaceRecord*> deleted;
  for (const auto& [id, before, after] : changes.interfaces.changes) {
    if (before.has_value() && !after.has_value()) {
      deleted.emplace(Address(*before), &*before);
    }
  }
  if (!deleted.empty()) {
    for (const InterfaceRecord& rec : mirrored) {
      deleted.erase(Address(rec));
    }
  }
  for (const auto& [address, gone] : deleted) {
    for (const InterfaceRecord& rec : local.GetInterfaces(Selector::ByIp(gone->ip))) {
      if (rec.mac == gone->mac) {
        local.DeleteInterface(rec.id);
      }
    }
  }

  // All local replays ride one batch writer. No clock: time does not advance
  // during a pull, so server-side stamping at flush matches per-record v1.
  JournalBatchWriter writer(&local);
  for (const InterfaceRecord* rec : Replayable(changes.interfaces)) {
    InterfaceObservation obs;
    obs.ip = rec->ip;
    obs.mac = rec->mac;
    obs.dns_name = rec->dns_name;
    obs.mask = rec->mask;
    obs.rip_source = rec->rip_source;
    obs.rip_promiscuous = rec->rip_promiscuous;
    obs.services = rec->services;
    writer.StoreInterface(obs, DiscoverySource::kManual);
    ++stats.interfaces_pulled;
  }

  // Gateways: member ids resolve to addresses through the mirrored
  // interfaces (ids never cross sites), in one pass over the mirror.
  const std::vector<const GatewayRecord*> gateways = Replayable(changes.gateways);
  std::unordered_map<RecordId, const InterfaceRecord*> members;
  for (const GatewayRecord* gw : gateways) {
    for (RecordId id : gw->interface_ids) {
      members.emplace(id, nullptr);
    }
  }
  if (!members.empty()) {
    for (const InterfaceRecord& rec : mirrored) {
      if (auto it = members.find(rec.id); it != members.end()) {
        it->second = &rec;
      }
    }
  }
  for (const GatewayRecord* gw : gateways) {
    GatewayObservation obs;
    obs.name = gw->name;
    obs.connected_subnets = gw->connected_subnets;
    for (RecordId id : gw->interface_ids) {
      if (const InterfaceRecord* member = members.at(id); member != nullptr) {
        obs.interface_ips.push_back(member->ip);
      }
    }
    if (obs.interface_ips.empty() && obs.name.empty()) {
      continue;
    }
    writer.StoreGateway(obs, DiscoverySource::kManual);
    ++stats.gateways_pulled;
  }

  for (const SubnetRecord* subnet : Replayable(changes.subnets)) {
    SubnetObservation obs;
    obs.subnet = subnet->subnet;
    obs.host_count = subnet->host_count;
    obs.lowest_assigned = subnet->lowest_assigned;
    obs.highest_assigned = subnet->highest_assigned;
    writer.StoreSubnet(obs, DiscoverySource::kManual);
    ++stats.subnets_pulled;
  }
  writer.Flush();
  stats.new_or_changed = writer.totals().new_info;

  // Lag between consecutive pulls: how stale this site was just before the
  // pull, measured by the newest remote change it had been missing.
  auto& metrics = telemetry::MetricsRegistry::Global();
  if (had_any && !mirrored.empty() && mirrored.back().ts.last_changed > newest_before) {
    metrics.GetGauge(telemetry::names::kJournalReplicationLagUs)
        ->Set((mirrored.back().ts.last_changed - newest_before).ToMicros());
  }
  metrics.GetCounter(telemetry::names::kJournalReplicationPulls)->Increment();
  metrics.GetCounter(telemetry::names::kJournalReplicationRecordsPulled)
      ->Add(stats.interfaces_pulled + stats.gateways_pulled + stats.subnets_pulled);
  metrics.GetCounter(telemetry::names::kJournalReplicationNewOrChanged)->Add(stats.new_or_changed);
  return stats;
}

}  // namespace fremont
