#include "src/explorer/rip_probe.h"

#include <set>

#include "src/net/udp.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/util/logging.h"

namespace fremont {
namespace {
constexpr uint16_t kRipProbePort = 30520;
}

RipProbe::RipProbe(Vantage vantage, JournalClient* journal, RipProbeParams params)
    : ExplorerModule("ripprobe", "RIPprobe", vantage, journal), params_(std::move(params)) {}

Subnet RipProbe::InferSubnet(Ipv4Address advertised) const {
  const std::optional<VantageInterface> iface = vantage().primary_interface();
  if (iface.has_value()) {
    const Subnet classful(iface->ip, iface->ip.NaturalMask());
    if (classful.Contains(advertised)) {
      return Subnet(advertised, SubnetMask::FromPrefixLength(params_.assumed_prefix));
    }
  }
  return Subnet(advertised, advertised.NaturalMask());
}

void RipProbe::StartImpl() {
  targets_ = params_.targets;
  if (targets_.empty()) {
    // Direct further discovery from the Journal: known RIP sources plus
    // every gateway member interface.
    std::set<uint32_t> unique;
    for (const auto& rec : journal()->GetInterfaces()) {
      if (rec.rip_source && !rec.rip_promiscuous) {
        unique.insert(rec.ip.value());
      }
    }
    for (const auto& gw : journal()->GetGateways()) {
      for (RecordId iface_id : gw.interface_ids) {
        auto rec = journal()->GetInterfaceById(iface_id);
        if (rec.has_value()) {
          unique.insert(rec->ip.value());
        }
      }
    }
    for (uint32_t v : unique) {
      targets_.push_back(Ipv4Address(v));
    }
  }

  ProbeNext(0);
}

void RipProbe::ProbeNext(size_t index) {
  if (index >= targets_.size()) {
    Complete();
    return;
  }
  const Ipv4Address target = targets_[index];
  // One probe at a time: bind, send, wait the full timeout window (a
  // multi-chunk reply keeps arriving inside it — routers pace their chunks a
  // few milliseconds apart), unbind. The daemon's reply carries the router's
  // full table. A multihomed router may answer from a *different* interface
  // than the one probed — which is itself a finding: both addresses belong
  // to the same box.
  auto entries = std::make_shared<std::optional<std::vector<RipEntry>>>();
  auto responder = std::make_shared<Ipv4Address>();
  BindUdp(kRipProbePort, [entries, responder](const Ipv4Packet& packet,
                                              const UdpDatagram& datagram) {
    auto rip = RipPacket::Decode(datagram.payload);
    if (rip.has_value() && rip->command == RipCommand::kResponse) {
      if (!entries->has_value()) {
        *entries = std::vector<RipEntry>();
      }
      *responder = packet.src;
      (*entries)->insert((*entries)->end(), rip->entries.begin(), rip->entries.end());
    }
  });
  RipPacket request;
  request.command = params_.use_poll ? RipCommand::kPoll : RipCommand::kRequest;
  SendUdp(target, kRipProbePort, kRipPort, request.Encode());

  ScheduleGuarded(params_.reply_timeout, [this, index, target, entries, responder]() {
    UnbindUdp(kRipProbePort);
    if (!entries->has_value()) {
      silent_.push_back(target);
    } else {
      tables_[target.value()] = **entries;
      responder_for_target_[target.value()] = *responder;
      ++mutable_report().replies_received;
    }
    ScheduleGuarded(params_.spacing, [this, index]() { ProbeNext(index + 1); });
  });
}

// Write findings: the responding router is a RIP source and a gateway; its
// metric-1 routes are its directly connected subnets.
void RipProbe::Finish() {
  std::set<uint32_t> subnets_seen;
  for (const auto& [target_value, entries] : tables_) {
    const Ipv4Address target(target_value);
    InterfaceObservation source_obs;
    source_obs.ip = target;
    source_obs.rip_source = true;
    writer().StoreInterface(source_obs, DiscoverySource::kRipWatch);

    GatewayObservation gw;
    gw.interface_ips = {target};
    const Ipv4Address responder = responder_for_target_[target_value];
    if (!responder.IsZero() && responder != target) {
      // Answered from another interface: same router, two known addresses.
      gw.interface_ips.push_back(responder);
    }
    for (const auto& entry : entries) {
      const Subnet subnet = InferSubnet(entry.address);
      subnets_seen.insert(subnet.network().value());
      SubnetObservation subnet_obs;
      subnet_obs.subnet = subnet;
      writer().StoreSubnet(subnet_obs, DiscoverySource::kRipWatch);
      if (entry.metric <= 1) {
        gw.connected_subnets.push_back(subnet);
      }
    }
    if (!gw.connected_subnets.empty()) {
      writer().StoreGateway(gw, DiscoverySource::kRipWatch);
    }
  }
  subnets_discovered_ = static_cast<int>(subnets_seen.size());
  mutable_report().discovered = subnets_discovered_;
  if (!silent_.empty()) {
    FLOG(kInfo) << "ripprobe: " << silent_.size() << " target(s) did not answer";
    telemetry::MetricsRegistry::Global()
        .GetCounter(telemetry::names::kRipProbeTimeouts)
        ->Add(static_cast<int64_t>(silent_.size()));
  }
}

}  // namespace fremont
