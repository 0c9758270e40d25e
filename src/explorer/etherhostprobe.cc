#include "src/explorer/etherhostprobe.h"

#include <map>

#include "src/net/udp.h"
#include "src/telemetry/trace.h"
#include "src/util/logging.h"

namespace fremont {

EtherHostProbe::EtherHostProbe(Vantage vantage, JournalClient* journal,
                               EtherHostProbeParams params)
    : ExplorerModule("etherhostprobe", "EtherHostProbe", vantage, journal), params_(params) {}

void EtherHostProbe::StartImpl() {
  Interface* iface = vantage().primary_interface();
  if (iface == nullptr || iface->segment == nullptr) {
    FLOG(kError) << "etherhostprobe: vantage host has no attached segment";
    Complete();
    return;
  }
  const Subnet subnet = iface->AttachedSubnet();
  first_ = params_.first.IsZero() ? subnet.HostAt(1) : params_.first;
  last_ =
      params_.last.IsZero() ? Ipv4Address(subnet.BroadcastAddress().value() - 1) : params_.last;
  if (last_ < first_) {
    std::swap(first_, last_);
  }

  const Duration spacing = Duration::SecondsF(1.0 / params_.packets_per_second);

  const uint32_t count = last_.value() - first_.value() + 1;
  for (uint32_t i = 0; i < count; ++i) {
    const Ipv4Address target(first_.value() + i);
    if (target == iface->ip) {
      continue;  // Don't probe ourselves.
    }
    ScheduleGuarded(spacing * i, [this, target]() {
      SendUdp(target, 40000, kUdpEchoPort, {});
      auto& tracer = telemetry::Tracer::Global();
      if (tracer.enabled()) {
        tracer.Record(vantage().Now(), telemetry::TraceEventKind::kProbeSent, "etherhostprobe",
                      target.ToString());
      }
    });
  }
  ScheduleGuarded(spacing * count + params_.settle, [this]() {
    Harvest();
    Complete();
  });
}

// Read the local ARP table — the kernel did the discovery for us.
void EtherHostProbe::Harvest() {
  std::map<uint64_t, std::vector<ArpCache::Entry>> by_mac;
  for (const auto& entry : vantage().arp_cache().Snapshot(vantage().Now())) {
    if (entry.ip >= first_ && entry.ip <= last_) {
      by_mac[entry.mac.ToU64()].push_back(entry);
    }
  }
  ExplorerReport& report = mutable_report();
  for (const auto& [mac_key, entries] : by_mac) {
    (void)mac_key;
    if (static_cast<int>(entries.size()) >= params_.proxy_arp_threshold) {
      // One MAC answering for a block of addresses: a proxy-ARP device
      // (e.g. a terminal server). Recording these IPs as distinct interfaces
      // would be wrong; skip them and note the device.
      ++proxy_suspects_;
      continue;
    }
    for (const auto& entry : entries) {
      InterfaceObservation obs;
      obs.ip = entry.ip;
      obs.mac = entry.mac;
      writer().StoreInterface(obs, DiscoverySource::kEtherHostProbe);
      ++report.discovered;
    }
  }
  report.replies_received = static_cast<uint64_t>(report.discovered);
}

void EtherHostProbe::CancelImpl() { Harvest(); }

}  // namespace fremont
