#include "src/explorer/broadcast_ping.h"

namespace fremont {
namespace {
constexpr uint16_t kBroadcastPingIdent = 0x4250;
}

BroadcastPing::BroadcastPing(Vantage vantage, JournalClient* journal, BroadcastPingParams params)
    : ExplorerModule("broadcastping", "BrdcastPing", vantage, journal), params_(params) {}

void BroadcastPing::StartImpl() {
  const std::optional<VantageInterface> iface = vantage().primary_interface();
  if (!iface.has_value()) {
    Complete();
    return;
  }
  const Subnet target = params_.target.value_or(iface->AttachedSubnet());
  const bool local = iface->AttachedSubnet() == target;
  const Ipv4Address broadcast = target.BroadcastAddress();

  ListenIcmp([this, target](const Ipv4Packet& packet, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply && message.identifier == kBroadcastPingIdent &&
        target.Contains(packet.src)) {
      replied_.insert(packet.src.value());
      ++mutable_report().replies_received;
    }
  });

  // Minimal TTL: 1 on the attached subnet; towards a remote subnet, ramp up
  // one hop at a time so a looping broadcast dies quickly.
  uint16_t seq = 0;
  for (int ping = 0; ping < params_.pings; ++ping) {
    if (local) {
      ScheduleGuarded(params_.spacing * ping, [this, broadcast, seq]() {
        SendIcmp(broadcast, IcmpMessage::EchoRequest(kBroadcastPingIdent, seq), 1);
      });
      ++seq;
    } else {
      for (int ttl = 2; ttl <= params_.max_ttl; ++ttl) {
        ScheduleGuarded(params_.spacing * ping + Duration::Seconds(ttl - 2),
                        [this, broadcast, seq, ttl]() {
                          SendIcmp(broadcast, IcmpMessage::EchoRequest(kBroadcastPingIdent, seq),
                                   static_cast<uint8_t>(ttl));
                        });
        ++seq;
      }
    }
  }
  ScheduleGuarded(params_.spacing * params_.pings + params_.collect, [this]() { Complete(); });
}

void BroadcastPing::Finish() {
  for (uint32_t v : replied_) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(v);
    writer().StoreInterface(obs, DiscoverySource::kBroadcastPing);
    responders_.push_back(obs.ip);
  }
  mutable_report().discovered = static_cast<int>(replied_.size());
}

}  // namespace fremont
