#include "src/explorer/ripwatch.h"

#include "src/net/ipv4.h"
#include "src/net/udp.h"

namespace fremont {

RipWatch::RipWatch(Vantage vantage, JournalClient* journal, RipWatchParams params)
    : ExplorerModule("ripwatch", "RIPwatch", vantage, journal), params_(params) {}

bool RipWatch::StartCapture() {
  return tapping() ||
         Tap([this](const EthernetFrame& frame, SimTime now) { OnFrame(frame, now); });
}

void RipWatch::StopCapture() { Untap(); }

void RipWatch::StartImpl() {
  if (!StartCapture()) {
    WriteFindings();
    Complete();
    return;
  }
  ScheduleGuarded(params_.watch, [this]() {
    WriteFindings();
    Complete();
  });
}

void RipWatch::CancelImpl() { WriteFindings(); }

void RipWatch::OnFrame(const EthernetFrame& frame, SimTime) {
  if (frame.ethertype != EtherType::kIpv4) {
    return;
  }
  auto packet = Ipv4Packet::Decode(frame.payload);
  if (!packet.has_value() || packet->protocol != IpProtocol::kUdp) {
    return;
  }
  auto datagram = UdpDatagram::Decode(packet->payload);
  if (!datagram.has_value() || datagram->dst_port != kRipPort) {
    return;
  }
  auto rip = RipPacket::Decode(datagram->payload);
  if (!rip.has_value() || rip->command != RipCommand::kResponse) {
    return;
  }
  ++mutable_report().replies_received;

  SourceState& state = sources_[packet->src.value()];
  state.mac = frame.src;
  const Subnet local = vantage().primary_interface()->AttachedSubnet();
  for (const auto& entry : rip->entries) {
    auto it = state.routes.find(entry.address.value());
    if (it == state.routes.end() || entry.metric < it->second) {
      state.routes[entry.address.value()] = entry.metric;
    }
    // Split-horizon violation: advertising our own subnet back onto itself.
    if (InferSubnet(entry.address) == local) {
      state.split_horizon_violation = true;
    }
  }
}

Subnet RipWatch::InferSubnet(Ipv4Address advertised) const {
  Interface* iface = vantage().primary_interface();
  const Subnet classful(iface->ip, iface->ip.NaturalMask());
  if (classful.Contains(advertised)) {
    return Subnet(advertised, iface->mask);
  }
  return Subnet(advertised, advertised.NaturalMask());
}

int RipWatch::subnets_seen() const {
  std::set<uint32_t> subnets;
  // The attached subnet is directly observed (split horizon means no honest
  // gateway will ever advertise it back onto itself).
  if (vantage().primary_interface() != nullptr) {
    subnets.insert(vantage().primary_interface()->AttachedSubnet().network().value());
  }
  for (const auto& [src, state] : sources_) {
    (void)src;
    if (state.split_horizon_violation) {
      continue;  // Untrustworthy source: don't let it pollute the census.
    }
    bool has_connected = false;
    for (const auto& [addr, metric] : state.routes) {
      (void)addr;
      if (metric <= 1) {
        has_connected = true;
        break;
      }
    }
    if (!has_connected) {
      continue;  // Pure echo.
    }
    for (const auto& [addr, metric] : state.routes) {
      (void)metric;
      subnets.insert(InferSubnet(Ipv4Address(addr)).network().value());
    }
  }
  return static_cast<int>(subnets.size());
}

std::vector<Ipv4Address> RipWatch::promiscuous_sources() const {
  std::vector<Ipv4Address> out;
  for (const auto& [src, state] : sources_) {
    bool has_connected = false;
    for (const auto& [addr, metric] : state.routes) {
      (void)addr;
      if (metric <= 1) {
        has_connected = true;
        break;
      }
    }
    if (state.split_horizon_violation || !has_connected) {
      out.push_back(Ipv4Address(src));
    }
  }
  return out;
}

void RipWatch::WriteFindings() {
  if (vantage().primary_interface() != nullptr) {
    SubnetObservation local_obs;
    local_obs.subnet = vantage().primary_interface()->AttachedSubnet();
    writer().StoreSubnet(local_obs, DiscoverySource::kRipWatch);
  }
  const auto promiscuous = promiscuous_sources();
  auto is_promiscuous = [&](uint32_t src) {
    for (Ipv4Address p : promiscuous) {
      if (p.value() == src) {
        return true;
      }
    }
    return false;
  };

  for (const auto& [src, state] : sources_) {
    InterfaceObservation source_obs;
    source_obs.ip = Ipv4Address(src);
    source_obs.mac = state.mac;
    source_obs.rip_source = true;
    source_obs.rip_promiscuous = is_promiscuous(src);
    writer().StoreInterface(source_obs, DiscoverySource::kRipWatch);

    if (source_obs.rip_promiscuous) {
      continue;  // Routes from untrustworthy sources are not recorded.
    }
    for (const auto& [addr, metric] : state.routes) {
      (void)metric;
      SubnetObservation subnet_obs;
      subnet_obs.subnet = InferSubnet(Ipv4Address(addr));
      writer().StoreSubnet(subnet_obs, DiscoverySource::kRipWatch);
    }
  }
  mutable_report().discovered = subnets_seen();
}

}  // namespace fremont
