#include "src/sim/host.h"

#include <utility>

#include "src/util/logging.h"

namespace fremont {

Host::Host(std::string name, HostConfig config, EventQueue* events, Rng* rng)
    : name_(std::move(name)),
      config_(config),
      events_(events),
      rng_(rng),
      arp_cache_(config.arp_timeout) {}

Interface* Host::AttachTo(Segment* segment, Ipv4Address ip, SubnetMask mask, MacAddress mac) {
  auto iface = std::make_unique<Interface>();
  iface->owner = this;
  iface->owner_shard = shard_;
  iface->mac = mac;
  iface->ip = ip;
  iface->mask = mask;
  iface->up = up_;
  Interface* raw = iface.get();
  interfaces_.push_back(std::move(iface));
  segment->Attach(raw);
  return raw;
}

void Host::SetUp(bool up) {
  up_ = up;
  for (auto& iface : interfaces_) {
    iface->up = up;
  }
  if (!up) {
    // Power-off clears volatile state.
    arp_cache_.Clear();
    pending_arp_.clear();
  }
}

bool Host::OwnsAddress(Ipv4Address ip) const {
  for (const auto& iface : interfaces_) {
    if (iface->ip == ip) {
      return true;
    }
  }
  return false;
}

bool Host::IsBroadcastDestination(Ipv4Address dst) const {
  if (dst.IsLimitedBroadcast()) {
    return true;
  }
  for (const auto& iface : interfaces_) {
    if (dst == iface->AttachedSubnet().BroadcastAddress()) {
      return true;
    }
  }
  return false;
}

Interface* Host::InterfaceForSubnet(Ipv4Address dst) const {
  for (const auto& iface : interfaces_) {
    if (iface->AttachedSubnet().Contains(dst)) {
      return iface.get();
    }
  }
  return nullptr;
}

std::optional<Host::NextHop> Host::Route(Ipv4Address dst) {
  if (Interface* direct = InterfaceForSubnet(dst); direct != nullptr) {
    return NextHop{direct, Ipv4Address()};
  }
  if (default_gateway_.has_value()) {
    Interface* via = InterfaceForSubnet(*default_gateway_);
    if (via != nullptr) {
      return NextHop{via, *default_gateway_};
    }
  }
  return std::nullopt;
}

bool Host::SendIpPacket(Ipv4Packet packet) {
  if (!up_) {
    return false;
  }
  if (packet.identification == 0) {
    packet.identification = next_ip_id_++;
  }

  // Limited broadcast never leaves the local segment.
  if (packet.dst.IsLimitedBroadcast()) {
    Interface* iface = primary_interface();
    if (iface == nullptr || iface->segment == nullptr) {
      return false;
    }
    ++packets_sent_;
    TransmitFrame(iface, MacAddress::Broadcast(), EtherType::kIpv4, packet.Encode());
    return true;
  }

  auto hop = Route(packet.dst);
  if (!hop.has_value() || hop->iface->segment == nullptr || !hop->iface->up) {
    return false;
  }

  // Directed broadcast onto an attached subnet goes out as link broadcast.
  if (hop->gateway.IsZero() && packet.dst == hop->iface->AttachedSubnet().BroadcastAddress()) {
    ++packets_sent_;
    TransmitFrame(hop->iface, MacAddress::Broadcast(), EtherType::kIpv4, packet.Encode());
    return true;
  }

  const Ipv4Address next_hop_ip = hop->gateway.IsZero() ? packet.dst : hop->gateway;
  TransmitViaArp(hop->iface, next_hop_ip, std::move(packet));
  return true;
}

bool Host::SendUdp(Ipv4Address dst, uint16_t src_port, uint16_t dst_port, ByteBuffer payload,
                   uint8_t ttl) {
  if (payload.size() > 65507) {
    FLOG(kError) << name_ << ": UDP payload of " << payload.size()
                 << " bytes exceeds the datagram limit; dropped";
    return false;
  }
  UdpDatagram datagram;
  datagram.src_port = src_port;
  datagram.dst_port = dst_port;
  datagram.payload = std::move(payload);

  Ipv4Packet packet;
  packet.protocol = IpProtocol::kUdp;
  packet.ttl = ttl;
  packet.dst = dst;
  auto hop = Route(dst);
  packet.src = hop.has_value() ? hop->iface->ip
                               : (primary_interface() != nullptr ? primary_interface()->ip
                                                                 : Ipv4Address());
  packet.payload = datagram.Encode();
  return SendIpPacket(std::move(packet));
}

bool Host::SendIcmp(Ipv4Address dst, const IcmpMessage& message, uint8_t ttl) {
  Ipv4Packet packet;
  packet.protocol = IpProtocol::kIcmp;
  packet.ttl = ttl;
  packet.dst = dst;
  auto hop = Route(dst);
  packet.src = hop.has_value() ? hop->iface->ip
                               : (primary_interface() != nullptr ? primary_interface()->ip
                                                                 : Ipv4Address());
  packet.payload = message.Encode();
  return SendIpPacket(std::move(packet));
}

bool Host::BindUdp(uint16_t port, UdpHandler handler) {
  auto [it, inserted] = udp_handlers_.emplace(port, std::move(handler));
  (void)it;
  return inserted;
}

void Host::UnbindUdp(uint16_t port) { udp_handlers_.erase(port); }

int Host::AddIcmpListener(IcmpListener listener) {
  const int token = next_icmp_token_++;
  icmp_listeners_.emplace(token, std::move(listener));
  return token;
}

void Host::RemoveIcmpListener(int token) { icmp_listeners_.erase(token); }

void Host::TransmitViaArp(Interface* iface, Ipv4Address next_hop_ip, Ipv4Packet packet) {
  ++packets_sent_;
  if (auto mac = arp_cache_.Lookup(next_hop_ip, Now()); mac.has_value()) {
    TransmitFrame(iface, *mac, EtherType::kIpv4, packet.Encode());
    return;
  }

  auto [it, fresh] = pending_arp_.try_emplace(next_hop_ip.value());
  it->second.iface = iface;
  it->second.packets.push_back(std::move(packet));
  if (!fresh) {
    return;  // Resolution already in flight; packet queued behind it.
  }

  ArpPacket request;
  request.op = ArpOp::kRequest;
  request.sender_mac = iface->mac;
  request.sender_ip = iface->ip;
  request.target_mac = MacAddress::Zero();
  request.target_ip = next_hop_ip;
  TransmitFrame(iface, MacAddress::Broadcast(), EtherType::kArp, request.Encode());

  // Retry on a timer; give up (and drop the queued packets) after
  // arp_max_retries unanswered requests.
  auto retry = [this, next_hop_ip]() {
    auto pending = pending_arp_.find(next_hop_ip.value());
    if (pending == pending_arp_.end()) {
      return;  // Resolved meanwhile.
    }
    if (++pending->second.retries >= config_.arp_max_retries) {
      pending_arp_.erase(pending);  // Unresolvable.
      return;
    }
    ArpPacket again;
    again.op = ArpOp::kRequest;
    again.sender_mac = pending->second.iface->mac;
    again.sender_ip = pending->second.iface->ip;
    again.target_ip = next_hop_ip;
    TransmitFrame(pending->second.iface, MacAddress::Broadcast(), EtherType::kArp, again.Encode());
  };
  for (int i = 1; i <= config_.arp_max_retries; ++i) {
    events_->Schedule(config_.arp_retry_interval * i, retry);
  }
}

void Host::TransmitFrame(Interface* iface, MacAddress dst, EtherType ethertype,
                         ByteBuffer payload) {
  if (!up_ || iface->segment == nullptr || !iface->up) {
    return;
  }
  EthernetFrame frame;
  frame.dst = dst;
  frame.src = iface->mac;
  frame.ethertype = ethertype;
  frame.payload = std::move(payload);
  iface->segment->Transmit(std::move(frame));
}

void Host::OnFrame(Interface* iface, const FrameView& view) {
  if (!up_) {
    return;
  }
  switch (view.frame().ethertype) {
    case EtherType::kArp: {
      if (auto arp = ArpPacket::Decode(view.frame().payload); arp.has_value()) {
        HandleArp(iface, *arp);
      }
      break;
    }
    case EtherType::kIpv4: {
      const Ipv4Packet* packet = view.ipv4();
      if (packet == nullptr) {
        break;
      }
      if (IsLocalDestination(iface, packet->dst)) {
        DeliverLocal(iface, view);
      } else {
        ForwardPacket(iface, *packet);
      }
      break;
    }
  }
}

bool Host::IsLocalDestination(Interface* iface, Ipv4Address dst) const {
  if (OwnsAddress(dst) || dst.IsLimitedBroadcast()) {
    return true;
  }
  const Subnet attached = iface->AttachedSubnet();
  if (dst == attached.BroadcastAddress()) {
    return true;
  }
  if (config_.accepts_host_zero && dst == attached.HostZero()) {
    return true;
  }
  return false;
}

void Host::HandleArp(Interface* iface, const ArpPacket& arp) {
  // Standard merge rule (RFC 826): refresh an existing entry for the sender;
  // create one only if we are the target.
  const bool target_is_us = OwnsAddress(arp.target_ip);
  if (target_is_us || arp_cache_.Contains(arp.sender_ip, Now())) {
    arp_cache_.Update(arp.sender_ip, arp.sender_mac, Now());
  }
  if (arp.op == ArpOp::kRequest && target_is_us) {
    ArpPacket reply;
    reply.op = ArpOp::kReply;
    reply.sender_mac = iface->mac;
    reply.sender_ip = arp.target_ip;
    reply.target_mac = arp.sender_mac;
    reply.target_ip = arp.sender_ip;
    TransmitFrame(iface, arp.sender_mac, EtherType::kArp, reply.Encode());
  }
  if (arp.op == ArpOp::kReply && target_is_us) {
    // Flush packets that were waiting on this resolution.
    auto pending = pending_arp_.find(arp.sender_ip.value());
    if (pending != pending_arp_.end()) {
      Interface* out = pending->second.iface;
      std::vector<Ipv4Packet> packets = std::move(pending->second.packets);
      pending_arp_.erase(pending);
      for (auto& packet : packets) {
        TransmitFrame(out, arp.sender_mac, EtherType::kIpv4, packet.Encode());
      }
    }
  }
}

void Host::DeliverLocal(Interface* iface, const FrameView& view) {
  const Ipv4Packet& packet = *view.ipv4();
  switch (packet.protocol) {
    case IpProtocol::kIcmp: {
      if (auto message = IcmpMessage::Decode(packet.payload); message.has_value()) {
        HandleIcmp(iface, packet, *message);
      }
      break;
    }
    case IpProtocol::kUdp:
      if (const UdpDatagram* datagram = view.udp(); datagram != nullptr) {
        HandleUdp(iface, packet, *datagram);
      }
      break;
    default:
      // No TCP services in the simulated campus; protocol unreachable.
      if (config_.sends_port_unreachable && OwnsAddress(packet.dst)) {
        SendIcmpError(packet,
                      IcmpMessage::DestUnreachable(IcmpUnreachableCode::kProtocolUnreachable, {}),
                      64);
      }
      break;
  }
}

void Host::HandleIcmp(Interface* iface, const Ipv4Packet& packet, const IcmpMessage& message) {
  switch (message.type) {
    case IcmpType::kEchoRequest: {
      const bool is_broadcast = IsBroadcastDestination(packet.dst);
      if (!config_.responds_to_echo || (is_broadcast && !config_.responds_to_broadcast_ping)) {
        break;
      }
      IcmpMessage reply = IcmpMessage::EchoReply(message.identifier, message.sequence,
                                                 message.echo_data);
      Ipv4Packet out;
      out.protocol = IpProtocol::kIcmp;
      out.src = iface->ip;
      out.dst = packet.src;
      out.payload = reply.Encode();
      if (is_broadcast) {
        // Broadcast ping replies bunch together; hosts defer by a small
        // random amount (protocol stacks + CSMA/CD backoff), then the
        // collision model thins out whatever still lands together.
        Ipv4Packet copy = out;
        events_->Schedule(Duration::Micros(rng_->Uniform(0, 25000)),
                          [this, copy]() { SendIpPacket(copy); });
      } else {
        SendIpPacket(std::move(out));
      }
      break;
    }
    case IcmpType::kMaskRequest: {
      if (!config_.responds_to_mask_request) {
        break;
      }
      const SubnetMask advertised = config_.wrong_advertised_mask.value_or(iface->mask);
      IcmpMessage reply = IcmpMessage::MaskReply(message.identifier, message.sequence, advertised);
      Ipv4Packet out;
      out.protocol = IpProtocol::kIcmp;
      out.src = iface->ip;
      out.dst = packet.src;
      out.payload = reply.Encode();
      SendIpPacket(std::move(out));
      break;
    }
    case IcmpType::kEchoReply:
    case IcmpType::kMaskReply:
    case IcmpType::kTimeExceeded:
    case IcmpType::kDestUnreachable:
      if (!icmp_listeners_.empty()) {
        // Snapshot the tokens: a listener may remove itself or its peers
        // while being dispatched, and a removed listener must not run.
        std::vector<int> tokens;
        tokens.reserve(icmp_listeners_.size());
        for (const auto& [token, listener] : icmp_listeners_) {
          (void)listener;
          tokens.push_back(token);
        }
        for (int token : tokens) {
          auto it = icmp_listeners_.find(token);
          if (it == icmp_listeners_.end()) {
            continue;
          }
          // Copy so self-removal inside the call cannot destroy the
          // std::function mid-invocation.
          IcmpListener listener = it->second;
          listener(packet, message);
        }
      }
      break;
  }
}

void Host::HandleUdp(Interface* iface, const Ipv4Packet& packet, const UdpDatagram& datagram) {
  if (auto it = udp_handlers_.find(datagram.dst_port); it != udp_handlers_.end()) {
    // Copy: event-driven Explorer Modules unbind their port from inside the
    // handler the moment the awaited reply arrives.
    UdpHandler handler = it->second;
    handler(packet, datagram);
    return;
  }

  // The packet was already accepted as locally destined; anything that is
  // not a broadcast counts as addressed to this host — including host-zero
  // packets, which RFC 1122-era hosts treat as their own (the behaviour
  // Fremont's traceroute exploits).
  const bool addressed_to_us = !IsBroadcastDestination(packet.dst);

  if (datagram.dst_port == kUdpEchoPort && config_.udp_echo_enabled && addressed_to_us) {
    SendUdp(packet.src, kUdpEchoPort, datagram.src_port, datagram.payload);
    return;
  }

  // Unbound port: ICMP Port Unreachable, but never for broadcast packets.
  if (addressed_to_us && config_.sends_port_unreachable) {
    // RFC 792: include the IP header and the first 8 payload bytes.
    ByteBuffer original = packet.Encode();
    const size_t keep = std::min(original.size(), Ipv4Packet::kHeaderLength + 8);
    original.resize(keep);
    IcmpMessage error =
        IcmpMessage::DestUnreachable(IcmpUnreachableCode::kPortUnreachable, std::move(original));
    Ipv4Packet out;
    out.protocol = IpProtocol::kIcmp;
    // The reflect-TTL firmware bug: the error leaves with whatever TTL the
    // offending packet arrived with, often dying on the way back.
    out.ttl = config_.reflects_ttl_in_replies ? packet.ttl : uint8_t{64};
    out.src = iface->ip;
    out.dst = packet.src;
    out.payload = error.Encode();
    SendIpPacket(std::move(out));
  }
}

void Host::SendIcmpError(const Ipv4Packet& offending, const IcmpMessage& error,
                         uint8_t reply_ttl) {
  // Never generate ICMP errors about broadcasts or about ICMP errors.
  if (offending.dst.IsLimitedBroadcast()) {
    return;
  }
  IcmpMessage to_send = error;
  if (to_send.original_datagram.empty()) {
    ByteBuffer original = offending.Encode();
    const size_t keep = std::min(original.size(), Ipv4Packet::kHeaderLength + 8);
    original.resize(keep);
    to_send.original_datagram = std::move(original);
  }
  Ipv4Packet out;
  out.protocol = IpProtocol::kIcmp;
  out.ttl = reply_ttl;
  out.dst = offending.src;
  auto hop = Route(out.dst);
  out.src = hop.has_value() ? hop->iface->ip
                            : (primary_interface() != nullptr ? primary_interface()->ip
                                                              : Ipv4Address());
  out.payload = to_send.Encode();
  SendIpPacket(std::move(out));
}

}  // namespace fremont
