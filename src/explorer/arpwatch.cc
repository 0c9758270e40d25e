#include "src/explorer/arpwatch.h"

#include <set>

namespace fremont {

ArpWatch::ArpWatch(Vantage vantage, JournalClient* journal, ArpWatchParams params)
    : ExplorerModule("arpwatch", "ARPwatch", vantage, journal), params_(params) {}

void ArpWatch::StartImpl() {
  if (!Tap([this](const EthernetFrame& frame, SimTime now) { OnFrame(frame, now); })) {
    Complete();
    return;
  }
  ScheduleGuarded(params_.watch, [this]() { Complete(); });
}

void ArpWatch::OnFrame(const EthernetFrame& frame, SimTime now) {
  if (frame.ethertype != EtherType::kArp) {
    return;
  }
  auto arp = ArpPacket::Decode(frame.payload);
  if (!arp.has_value()) {
    return;
  }
  // The sender fields of both requests and replies carry a live binding.
  // Sender IP 0.0.0.0 is an address-probe (no binding yet).
  if (!arp->sender_ip.IsZero() && !arp->sender_mac.IsZero()) {
    Observe(arp->sender_mac, arp->sender_ip, now);
  }
}

void ArpWatch::Observe(MacAddress mac, Ipv4Address ip, SimTime now) {
  const auto key = std::make_pair(mac.ToU64(), ip.value());
  auto it = seen_.find(key);
  if (it != seen_.end() && now - it->second < params_.write_throttle) {
    return;
  }
  seen_[key] = now;
  mutable_report().discovered = unique_pairs_seen();
  InterfaceObservation obs;
  obs.ip = ip;
  obs.mac = mac;
  writer().StoreInterface(obs, DiscoverySource::kArpWatch);
}

int ArpWatch::unique_ips_in(const Subnet& subnet) const {
  std::set<uint32_t> ips;
  for (const auto& [key, when] : seen_) {
    (void)when;
    if (subnet.Contains(Ipv4Address(key.second))) {
      ips.insert(key.second);
    }
  }
  return static_cast<int>(ips.size());
}

}  // namespace fremont
